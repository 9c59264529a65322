package httpapi

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ctxKey is the private type for request-scoped context values.
type ctxKey int

const requestIDKey ctxKey = iota

// RequestID returns the trace id assigned to the request, or "" outside an
// instrumented handler. The same id is echoed to the client in the
// X-Request-ID response header, so a traveller's complaint and the server's
// structured log line can be joined on it.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// requestIDSeq disambiguates ids if the random source ever fails.
var requestIDSeq atomic.Uint64

// maxRequestIDLen bounds client-supplied trace ids; anything longer is
// replaced rather than copied into every log line and response header.
const maxRequestIDLen = 64

// validRequestID reports whether a client-supplied X-Request-ID is safe to
// propagate: 1–64 chars drawn from [A-Za-z0-9._-].
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// newRequestID returns a 16-hex-char random trace id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", requestIDSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response status and body size for the access
// log and the status-code counters.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// handlers behind instrument() keep deadline and flush control.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush forwards to the underlying writer so streaming handlers keep
// working when wrapped.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Hijack forwards connection takeover (websocket upgrades) when the
// underlying writer supports it.
func (w *statusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if h, ok := w.ResponseWriter.(http.Hijacker); ok {
		return h.Hijack()
	}
	return nil, nil, fmt.Errorf("httpapi: underlying ResponseWriter does not support hijacking")
}

// ReadFrom keeps the sendfile fast path available; io.Copy picks up the
// underlying writer's ReaderFrom when it has one.
func (w *statusWriter) ReadFrom(r io.Reader) (int64, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := io.Copy(w.ResponseWriter, r)
	w.bytes += int(n)
	return n, err
}

// instrument wraps one endpoint with the serving-stack middleware:
//
//   - a per-request trace id, honoured from an incoming X-Request-ID header
//     or freshly generated, echoed in the response and stored in the
//     request context for handlers and log lines;
//   - when tracing is enabled, a root span for the request's trace — the
//     W3C traceparent header is ingested (an upstream gateway's trace id
//     names our spans) and echoed with our root span id, and every
//     tracing.Start below the handler attaches to this tree;
//   - atis_http_requests_total{path,method,code}, an
//     atis_http_request_seconds{path} latency histogram (with an
//     OpenMetrics exemplar linking to the trace when it was captured),
//     and the atis_http_in_flight gauge;
//   - one structured access-log line per request;
//   - recovery of a handler panic into a 500 internal envelope (serve).
//
// pattern is the mux registration pattern, used as the path label so metric
// cardinality stays bounded by the route table, not by client input. It is
// also the root span's name — constant per endpoint, so the disabled
// tracing path allocates nothing.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.Handler {
	latency := s.reg.Histogram("atis_http_request_seconds",
		"HTTP request latency.", nil, telemetry.L("path", pattern))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !validRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		// The snapshot generation the service holds as the request begins;
		// a gateway fanning out across replicas joins responses on it to
		// know which published world answered.
		w.Header().Set("X-ATIS-Snapshot", s.svc.Snapshot().GenerationText())
		ctx := context.WithValue(r.Context(), requestIDKey, id)
		ctx, trace := s.tracer.StartRequest(ctx, pattern, r.Header.Get("traceparent"))
		if trace != nil {
			w.Header().Set("traceparent", trace.Traceparent())
		}
		r = r.WithContext(ctx)

		s.inFlight.Inc()
		defer s.inFlight.Dec()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		aborted := s.serve(h, sw, r)
		elapsed := time.Since(start)

		if sw.status == 0 {
			sw.status = http.StatusOK // handler wrote nothing at all
		}
		root := trace.Root()
		root.SetStr("requestId", id)
		root.SetStr("method", r.Method)
		root.SetInt("status", int64(sw.status))
		root.SetInt("bytes", int64(sw.bytes))
		if s.tracer.Finish(trace) {
			// Captured (sampled or slow): link the histogram bucket to the
			// retrievable trace.
			latency.ObserveExemplar(elapsed.Seconds(), trace.ID(),
				float64(time.Now().UnixNano())/1e9)
		} else {
			latency.Observe(elapsed.Seconds())
		}
		s.reg.Counter("atis_http_requests_total", "HTTP requests by path, method, and status code.",
			telemetry.L("path", pattern),
			telemetry.L("method", r.Method),
			telemetry.L("code", strconv.Itoa(sw.status)),
		).Inc()

		logAttrs := []slog.Attr{
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int("bytes", sw.bytes),
			slog.Duration("duration", elapsed),
		}
		if trace != nil {
			logAttrs = append(logAttrs, slog.String("trace_id", trace.ID()))
		}
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request", logAttrs...)
		if aborted {
			panic(http.ErrAbortHandler)
		}
	})
}

// serve runs h, recovering a panic into a 500 internal envelope carrying
// the request id, so one failing request costs its caller an answer
// rather than the connection. The panic and its stack go to the error
// log. http.ErrAbortHandler is re-panicked: it is a handler's own request
// to drop the connection. A panic after the response has started cannot
// be answered with an envelope; serve then records a 500 and reports
// aborted, and the caller drops the connection once it has accounted the
// request, so the client never takes a truncated body for a whole one.
func (s *Server) serve(h http.HandlerFunc, sw *statusWriter, r *http.Request) (aborted bool) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			panic(p)
		}
		s.log.Error("handler panic", "request_id", RequestID(r.Context()),
			"path", r.URL.Path, "panic", p, "stack", string(debug.Stack()))
		if sw.status != 0 {
			sw.status = http.StatusInternalServerError
			aborted = true
			return
		}
		s.apiError(sw, r, http.StatusInternalServerError, CodeInternal, errors.New("internal server error"))
	}()
	h(sw, r)
	return false
}

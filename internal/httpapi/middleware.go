package httpapi

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ctxKey is the private type for request-scoped context values.
type ctxKey int

const requestKey ctxKey = iota

// Canonical header keys. The middleware and the encoder assign them into
// header maps directly, skipping Set's per-call canonicalisation; the
// wire names are unchanged, since net/http writes every key canonically.
const (
	hdrRequestID     = "X-Request-Id"
	hdrSnapshot      = "X-Atis-Snapshot"
	hdrTraceparent   = "Traceparent"
	hdrContentType   = "Content-Type"
	hdrContentLength = "Content-Length"
)

// jsonContentType is the shared Content-Type value of every JSON body;
// nothing writes into a Content-Type value in place.
var jsonContentType = []string{"application/json"}

// request is the middleware's per-request state, allocated once: the
// request id and the status-capturing writer.
type request struct {
	id string
	sw statusWriter
}

// RequestID returns the trace id assigned to the request, or "" outside an
// instrumented handler. The same id is echoed to the client in the
// X-Request-ID response header, so a traveller's complaint and the server's
// structured log line can be joined on it.
func RequestID(ctx context.Context) string {
	if rq, _ := ctx.Value(requestKey).(*request); rq != nil {
		return rq.id
	}
	return ""
}

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

// newRequestID returns a 16-hex-char random trace id. The runtime's
// generator (math/rand/v2, seeded from the OS at start) draws 64 bits
// as unlikely to collide as crypto/rand's, at a fraction of the cost;
// the id names a request, it guards nothing.
func newRequestID() string {
	const digits = "0123456789abcdef"
	v := rand.Uint64()
	var id [16]byte
	for i := len(id) - 1; i >= 0; i-- {
		id[i] = digits[v&0xf]
		v >>= 4
	}
	return string(id[:])
}

// firstValue is Header.Get for a key already in canonical form.
func firstValue(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// statusCounters resolves the atis_http_requests_total{path,method,code}
// series of one endpoint without rendering labels per request: each
// (method, status) pair seen is looked up in the registry once, and then
// read from a copy-on-write map. A series is created only when its first
// request is counted, so /metrics never shows a code the endpoint has not
// served. Past maxCachedStatus pairs (clients choose the method of a
// 405), lookups go to the registry.
type statusCounters struct {
	reg  *telemetry.Registry
	path string
	mu   sync.Mutex // serialises map copies
	m    atomic.Pointer[map[methodStatus]*telemetry.Counter]
}

type methodStatus struct {
	method string
	status int
}

const maxCachedStatus = 64

func (c *statusCounters) counter(method string, status int) *telemetry.Counter {
	k := methodStatus{method, status}
	if m := c.m.Load(); m != nil {
		if ctr, ok := (*m)[k]; ok {
			return ctr
		}
	}
	ctr := c.reg.Counter("atis_http_requests_total", "HTTP requests by path, method, and status code.",
		telemetry.L("path", c.path),
		telemetry.L("method", method),
		telemetry.L("code", strconv.Itoa(status)),
	)
	c.mu.Lock()
	defer c.mu.Unlock()
	var cur map[methodStatus]*telemetry.Counter
	if m := c.m.Load(); m != nil {
		cur = *m
	}
	if len(cur) >= maxCachedStatus {
		return ctr
	}
	next := make(map[methodStatus]*telemetry.Counter, len(cur)+1)
	for ck, cv := range cur {
		next[ck] = cv
	}
	next[k] = ctr
	c.m.Store(&next)
	return ctr
}

// statusWriter captures the response status and body size for the access
// log and the status-code counters. It also holds the values of the
// headers the server sets on every response, so assigning one costs no
// slice of its own.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	hdr    [4]string
}

// Slots of statusWriter.hdr.
const (
	slotRequestID = iota
	slotSnapshot
	slotTraceparent
	slotContentLength
)

// setHeader assigns v to the canonical key through slot i.
func (w *statusWriter) setHeader(key string, i int, v string) {
	w.hdr[i] = v
	w.Header()[key] = w.hdr[i : i+1 : i+1]
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
//   - a structured access-log line for every failure (4xx, 499, 5xx),
//     and for a success only when its trace was captured (head-sampled
//     or slow), so the log follows the trace sampler and every logged
//     success can be fetched by its trace_id;
//   - recovery of a handler panic into a 500 internal envelope (serve).
//
// pattern is the mux registration pattern, used as the path label so metric
// cardinality stays bounded by the route table, not by client input. It is
// also the root span's name — constant per endpoint, so the disabled
// tracing path allocates nothing.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.Handler {
	latency := s.reg.Histogram("atis_http_request_seconds",
		"HTTP request latency.", nil, telemetry.L("path", pattern))
	requests := &statusCounters{reg: s.reg, path: pattern}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rq := &request{sw: statusWriter{ResponseWriter: w}}
		rq.id = firstValue(r.Header, hdrRequestID)
		if !validRequestID(rq.id) {
			rq.id = newRequestID()
		}
		sw := &rq.sw
		sw.setHeader(hdrRequestID, slotRequestID, rq.id)
		// The snapshot generation the service holds as the request begins;
		// a gateway fanning out across replicas joins responses on it to
		// know which published world answered. The handlers that pin a
		// snapshot (route, batch, directions, display, evaluate)
		// overwrite it with the one their answer came from.
		sw.setHeader(hdrSnapshot, slotSnapshot, s.svc.Snapshot().GenerationText())
		ctx := context.WithValue(r.Context(), requestKey, rq)
		ctx, trace := s.tracer.StartRequest(ctx, pattern, firstValue(r.Header, hdrTraceparent))
		if trace != nil {
			sw.setHeader(hdrTraceparent, slotTraceparent, trace.Traceparent())
		}
		r = r.WithContext(ctx)

		s.inFlight.Inc()
		defer s.inFlight.Dec()
		start := time.Now()
		aborted := s.serve(h, sw, r)
		elapsed := time.Since(start)

		if sw.status == 0 {
			sw.status = http.StatusOK // handler wrote nothing at all
		}
		root := trace.Root()
		root.SetStr("requestId", rq.id)
		root.SetStr("method", r.Method)
		root.SetInt("status", int64(sw.status))
		root.SetInt("bytes", int64(sw.bytes))
		captured := s.tracer.Finish(trace)
		if captured {
			// Captured (sampled or slow): link the histogram bucket to the
			// retrievable trace.
			latency.ObserveExemplar(elapsed.Seconds(), trace.ID(),
				float64(time.Now().UnixNano())/1e9)
		} else {
			latency.Observe(elapsed.Seconds())
		}
		requests.counter(r.Method, sw.status).Inc()

		if captured || sw.status >= 400 {
			logAttrs := []slog.Attr{
				slog.String("request_id", rq.id),
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
		}
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

package httpapi

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/route"
)

// jsonBody is an append-style JSON encoder for the hot response bodies:
// the route, evaluation and batch bodies and the error envelope. It
// writes the bytes encoding/json writes for the same values (field
// order, omitempty, float formatting, HTML-safe string escapes), so the
// wire shapes stay those of RouteResponse, Evaluation and ErrorBody,
// without reflection or intermediate structs. The first unsupported
// value (a non-finite float) is kept in err, as json.Encoder would
// report it.
type jsonBody struct {
	b   []byte
	err error
}

// maxPooledBody bounds the buffers kept between requests; a larger one,
// from a big batch, is left to the collector.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(jsonBody) }}

// writeBody encodes a response with fill on a pooled body and sends it:
// see send.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, status int, fill func(*jsonBody)) {
	e := bodyPool.Get().(*jsonBody)
	defer bodyPool.Put(e)
	e.b, e.err = e.b[:0], nil
	fill(e)
	s.send(w, r, status, e)
	if cap(e.b) > maxPooledBody {
		e.b = nil
	}
}

// send finishes e with encoding/json's trailing newline and writes it as
// the whole response: Content-Type, Content-Length, status and one
// Write. A body that failed to encode is logged and sent empty, and a
// failed write is logged, as writeJSON does.
func (s *Server) send(w http.ResponseWriter, r *http.Request, status int, e *jsonBody) {
	h := w.Header()
	h[hdrContentType] = jsonContentType
	if e.err != nil {
		s.log.Warn("encoding response", "request_id", RequestID(r.Context()), "err", e.err)
		w.WriteHeader(status)
		return
	}
	e.b = append(e.b, '\n')
	n := strconv.Itoa(len(e.b))
	if sw, ok := w.(*statusWriter); ok {
		sw.setHeader(hdrContentLength, slotContentLength, n)
	} else {
		h[hdrContentLength] = []string{n}
	}
	w.WriteHeader(status)
	if _, err := w.Write(e.b); err != nil {
		s.log.Warn("writing response", "request_id", RequestID(r.Context()), "err", err)
	}
}

func (e *jsonBody) raw(s string) { e.b = append(e.b, s...) }

func (e *jsonBody) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

func (e *jsonBody) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// float formats f as encoding/json does: like strconv 'f', but 'e' with
// an unpadded exponent below 1e-6 and from 1e21 up.
func (e *jsonBody) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	e.b = b
}

// str appends s as a JSON string with encoding/json's escapes: '"' and
// '\\', the control characters, '<', '>' and '&' (HTML-safe), invalid
// UTF-8 as U+FFFD, and U+2028/U+2029.
func (e *jsonBody) str(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// routeFields appends RouteResponse's fields for rt, without braces:
// cost -1 and no nodes when no route was found, the evaluation when ev
// is non-nil.
func (e *jsonBody) routeFields(rt core.Route, degraded bool, ev *route.Evaluation) {
	e.raw(`"found":`)
	e.bool(rt.Found)
	e.raw(`,"cost":`)
	if rt.Found {
		e.float(rt.Cost)
	} else {
		e.raw("-1")
	}
	if nodes := rt.Path.Nodes; rt.Found && len(nodes) > 0 {
		e.raw(`,"nodes":[`)
		for i, u := range nodes {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.int(int(int32(u)))
		}
		e.b = append(e.b, ']')
	}
	e.raw(`,"algorithm":`)
	e.str(rt.Algorithm.String())
	e.raw(`,"iterations":`)
	e.int(rt.Trace.Iterations)
	if degraded {
		e.raw(`,"degraded":true`)
	}
	if ev != nil {
		e.raw(`,"evaluation":`)
		e.evaluation(*ev)
	}
}

// evaluation appends ev as the Evaluation object.
func (e *jsonBody) evaluation(ev route.Evaluation) {
	e.raw(`{"hops":`)
	e.int(ev.Hops)
	e.raw(`,"distance":`)
	e.float(ev.Distance)
	e.raw(`,"baseCost":`)
	e.float(ev.BaseCost)
	e.raw(`,"currentCost":`)
	e.float(ev.CurrentCost)
	e.raw(`,"congestionRatio":`)
	e.float(ev.CongestionRatio)
	e.raw(`,"congestedHops":`)
	e.int(ev.CongestedHops)
	e.b = append(e.b, '}')
}

// batch appends the /v1/routes/batch body, {"count":…,"routes":[…]},
// and returns how many items carry an error. Item i is a RouteResponse
// plus the whole batch's request id — the batch is admitted and traced
// as one request, so every item joins to the same trace and access-log
// line, when those are kept — and, on failure, the pair's error:
// resolveErrs[i] if its endpoints did not resolve, else the next of
// results, which hold the resolved pairs in order. A failed item reports
// algo, no route and no iterations.
func (e *jsonBody) batch(algo core.Algorithm, requestID string, resolveErrs []error, results []route.BatchResult) (failed int) {
	e.raw(`{"count":`)
	e.int(len(resolveErrs))
	e.raw(`,"routes":[`)
	for i, err := range resolveErrs {
		if i > 0 {
			e.raw(",")
		}
		var rt core.Route
		if err == nil {
			rt, err = results[0].Route, results[0].Err
			results = results[1:]
		}
		if err != nil {
			rt = core.Route{Algorithm: algo}
		}
		e.raw("{")
		e.routeFields(rt, false, nil)
		e.raw(`,"requestId":`)
		e.str(requestID)
		if err != nil {
			failed++
			if msg := err.Error(); msg != "" { // omitempty
				e.raw(`,"error":`)
				e.str(msg)
			}
		}
		e.raw("}")
	}
	e.raw("]}")
	return failed
}

// errorEnvelope appends the {"error":{…}} envelope.
func (e *jsonBody) errorEnvelope(code, message, requestID string) {
	e.raw(`{"error":{"code":`)
	e.str(code)
	e.raw(`,"message":`)
	e.str(message)
	e.raw(`,"requestId":`)
	e.str(requestID)
	e.raw("}}")
}

package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/search"
)

// The reference shapes: what the handlers encoded with encoding/json
// before the append encoder, built from the same values.

func wantRoute(rt core.Route, degraded bool, ev *route.Evaluation) RouteResponse {
	resp := RouteResponse{
		Found:      rt.Found,
		Cost:       rt.Cost,
		Algorithm:  rt.Algorithm.String(),
		Iterations: rt.Trace.Iterations,
		Degraded:   degraded,
	}
	if rt.Found {
		resp.Nodes = wireNodes(rt.Path.Nodes)
	} else {
		resp.Cost = -1
	}
	if ev != nil {
		resp.Evaluation = wantEvaluation(*ev)
	}
	return resp
}

func wantEvaluation(ev route.Evaluation) *Evaluation {
	return &Evaluation{
		Hops:            ev.Hops,
		Distance:        ev.Distance,
		BaseCost:        ev.BaseCost,
		CurrentCost:     ev.CurrentCost,
		CongestionRatio: ev.CongestionRatio,
		CongestedHops:   ev.CongestedHops,
	}
}

type wantBatchItem struct {
	RouteResponse
	RequestID string `json:"requestId"`
	Error     string `json:"error,omitempty"`
}

// encodeJSON is json.Encoder's output for v, trailing newline included.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sent is what Server.send puts on the wire for e.
func sent(t *testing.T, e *jsonBody) []byte {
	t.Helper()
	s := &Server{log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	w := &recycledWriter{h: make(http.Header)}
	s.send(w, &http.Request{}, http.StatusOK, e)
	if got := w.h.Get("Content-Length"); len(w.body) > 0 && got != strconv.Itoa(len(w.body)) {
		t.Fatalf("Content-Length %q for a %d-byte body", got, len(w.body))
	}
	return w.body
}

// randFloat spans the magnitudes where encoding/json switches between
// fixed and exponent notation (1e-6 and 1e21), from 1e-9 to 1e22, and
// includes exact integers and zero.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return float64(rng.Intn(1 << 20)) // exact integer
	case 1:
		return 0
	case 2:
		return []float64{1e-6, 1e21, 1e-7, 1e20, 999999999999999999999, 0.000001}[rng.Intn(6)]
	default:
		return rng.Float64() * math.Pow(10, float64(rng.Intn(32)-9))
	}
}

// randText mixes plain ASCII with every class of character encoding/json
// escapes: quotes and backslashes, control characters, the HTML-unsafe
// <, > and &, U+2028/U+2029, invalid UTF-8 and multi-byte runes.
func randText(rng *rand.Rand) string {
	pieces := []string{"unknown node ", `"ZZ"`, `\`, "\n", "\t", "\r", "\b", "\f", "\x00", "\x1f",
		"<", ">", "&", "\u2028", "\u2029", "\xff", "\xe2\x80", "é", "日本", "😀", "a", "Z", " ", "%", "+"}
	var b strings.Builder
	for n := rng.Intn(8); n > 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

func randRoute(rng *rand.Rand) core.Route {
	algos := core.Algorithms()
	rt := core.Route{
		Found:     rng.Intn(4) != 0,
		Cost:      randFloat(rng),
		Algorithm: algos[rng.Intn(len(algos))],
		Trace:     search.Trace{Iterations: rng.Intn(100000)},
	}
	if rt.Found {
		n := rng.Intn(40)
		if rng.Intn(8) == 0 {
			n = 0 // found with an empty path: no nodes field
		}
		for i := 0; i < n; i++ {
			rt.Path.Nodes = append(rt.Path.Nodes, graph.NodeID(rng.Intn(1<<30)))
		}
	} else if rng.Intn(2) == 0 {
		rt.Cost = math.Inf(1) // an unfound route's cost is never encoded
	}
	return rt
}

func randEvaluation(rng *rand.Rand) route.Evaluation {
	return route.Evaluation{
		Hops:            rng.Intn(500),
		Distance:        randFloat(rng),
		BaseCost:        randFloat(rng),
		CurrentCost:     randFloat(rng),
		CongestionRatio: randFloat(rng),
		CongestedHops:   rng.Intn(500),
	}
}

// TestEncoderMatchesEncodingJSON is the differential test of the append
// encoder: on seeded random values, the route body (found, unfound,
// degraded, with and without evaluation), the evaluation body, the batch
// body (items with resolve and compute errors) and the error envelope
// are byte-identical to encoding/json's output, trailing newline
// included.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	for i := 0; i < 2000; i++ {
		rt := randRoute(rng)
		degraded := rng.Intn(3) == 0
		var ev *route.Evaluation
		if rng.Intn(2) == 0 {
			v := randEvaluation(rng)
			ev = &v
		}
		e := &jsonBody{}
		e.raw("{")
		e.routeFields(rt, degraded, ev)
		e.raw("}")
		if got, want := sent(t, e), encodeJSON(t, wantRoute(rt, degraded, ev)); !bytes.Equal(got, want) {
			t.Fatalf("route %+v (degraded %v, evaluation %+v):\n got %s\nwant %s", rt, degraded, ev, got, want)
		}

		v := randEvaluation(rng)
		e = &jsonBody{}
		e.evaluation(v)
		if got, want := sent(t, e), encodeJSON(t, wantEvaluation(v)); !bytes.Equal(got, want) {
			t.Fatalf("evaluation %+v:\n got %s\nwant %s", v, got, want)
		}

		code, msg, id := randText(rng), randText(rng), randText(rng)
		e = &jsonBody{}
		e.errorEnvelope(code, msg, id)
		want := encodeJSON(t, map[string]ErrorBody{"error": {Code: code, Message: msg, RequestID: id}})
		if got := sent(t, e); !bytes.Equal(got, want) {
			t.Fatalf("envelope (%q, %q, %q):\n got %s\nwant %s", code, msg, id, got, want)
		}
	}
	for i := 0; i < 300; i++ {
		algos := core.Algorithms()
		algo := algos[rng.Intn(len(algos))]
		reqID := randText(rng)
		n := 1 + rng.Intn(12)
		resolveErrs := make([]error, n)
		var results []route.BatchResult
		items := make([]wantBatchItem, n)
		wantFailed := 0
		for j := range items {
			var err error
			rt := randRoute(rng)
			switch rng.Intn(4) {
			case 0:
				err = errors.New(randText(rng))
				resolveErrs[j] = err
			case 1:
				err = search.ErrDeadline
				results = append(results, route.BatchResult{Route: rt, Err: err})
			default:
				results = append(results, route.BatchResult{Route: rt})
			}
			items[j] = wantBatchItem{RouteResponse: wantRoute(rt, false, nil), RequestID: reqID}
			if err != nil {
				wantFailed++
				items[j].RouteResponse = RouteResponse{Cost: -1, Algorithm: algo.String()}
				items[j].Error = err.Error()
			}
		}
		e := &jsonBody{}
		failed := e.batch(algo, reqID, resolveErrs, results)
		want := encodeJSON(t, map[string]any{"count": len(items), "routes": items})
		if got := sent(t, e); !bytes.Equal(got, want) {
			t.Fatalf("batch:\n got %s\nwant %s", got, want)
		}
		if failed != wantFailed {
			t.Fatalf("batch reported %d failed items, want %d", failed, wantFailed)
		}
	}
}

// TestEncoderRefusesNonFiniteFloats: where encoding/json fails on a NaN
// or an infinity, the encoder reports an error and send writes no body,
// as json.Encoder wrote nothing.
func TestEncoderRefusesNonFiniteFloats(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("encoding/json accepted %v", f)
		}
		e := &jsonBody{}
		e.evaluation(route.Evaluation{Distance: f})
		if e.err == nil {
			t.Fatalf("encoder accepted %v", f)
		}
		if body := sent(t, e); len(body) != 0 {
			t.Fatalf("body %q sent for %v", body, f)
		}
	}
}

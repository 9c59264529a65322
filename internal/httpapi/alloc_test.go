package httpapi

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpls"
	"repro/internal/route"
)

// publishedSnapshots is how many snapshots the allocation fixtures
// publish before measuring: past 99, so every per-request rendering of a
// publish sequence would allocate, as it does on a long-running server.
const publishedSnapshots = 101

// recycledWriter is a ResponseWriter whose header map and body buffer are
// reused between requests, so an allocation count through it is the
// handler's own and not the recorder's.
type recycledWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *recycledWriter) Header() http.Header { return w.h }

func (w *recycledWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *recycledWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *recycledWriter) reset() {
	clear(w.h)
	w.code = 0
	w.body = w.body[:0]
}

// routeFixture is an mpls service that has published publishedSnapshots
// snapshots, behind a server whose access log is discarded, plus a list
// of /v1/route requests: pairs[0] repeated is a cache hit, and walking
// the rest is a stream of misses.
type routeFixture struct {
	h    http.Handler
	hit  *http.Request
	miss []*http.Request
}

func newRouteFixture(tb testing.TB, misses int) *routeFixture {
	tb.Helper()
	g := mpls.MustGenerate(mpls.Config{})
	svc := route.NewService(g)
	e := g.Edges()[0]
	for i := 0; i < publishedSnapshots; i++ {
		factor := 2.0
		if i%2 == 1 {
			factor = 0.5
		}
		if _, err := svc.ApplyTrafficBatchCtx(context.Background(),
			[]graph.EdgeCostChange{{Tail: e.Tail, Head: e.Head, Cost: factor, Scale: true}}); err != nil {
			tb.Fatal(err)
		}
	}
	if gen := svc.Snapshot().Generation(); gen <= 100 {
		tb.Fatalf("fixture published up to generation %d, want > 100", gen)
	}
	srv := NewServer(svc, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	f := &routeFixture{h: srv.Handler(), hit: httptest.NewRequest(http.MethodGet, "/v1/route?from=A&to=D", nil)}
	n := g.NumNodes()
	for i := 0; i < misses; i++ {
		// Distinct pairs for the first n*(n-1) requests.
		from, to := i%n, (i%n+1+i/n)%n
		f.miss = append(f.miss, httptest.NewRequest(http.MethodGet,
			"/v1/route?from="+strconv.Itoa(from)+"&to="+strconv.Itoa(to), nil))
	}
	return f
}

// serve runs one request through the handler into w and fails on a
// non-200 answer.
func (f *routeFixture) serve(tb testing.TB, w *recycledWriter, r *http.Request) {
	w.reset()
	f.h.ServeHTTP(w, r)
	if w.code != http.StatusOK {
		tb.Fatalf("%s: status %d: %s", r.URL, w.code, w.body)
	}
}

// BenchmarkHTTPRoute is a /v1/route request through Handler().ServeHTTP,
// middleware, admission and encoding included, on a route-cache hit and
// on a miss that runs A*. `make bench-http` runs it.
func BenchmarkHTTPRoute(b *testing.B) {
	const misses = 1 << 14
	f := newRouteFixture(b, misses)
	w := &recycledWriter{h: make(http.Header)}
	b.Run("hit", func(b *testing.B) {
		f.serve(b, w, f.hit)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.serve(b, w, f.hit)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.serve(b, w, f.miss[i%misses])
		}
	})
}

// TestRouteAllocCeiling bounds the allocations of one /v1/route request
// through Handler().ServeHTTP — middleware, query parse, admission,
// route service, evaluation and encoding — on a service past 100
// publishes: at most 12 on a route-cache hit and 15 on a miss. Both are
// the measured counts, with no slack: a pooled value that is not
// returned (a response buffer, a kernel workspace) costs at least one
// allocation per request, and that one allocation fails the gate.
func TestRouteAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool caching, so allocs/op is not meaningful under -race")
	}
	const runs = 200
	f := newRouteFixture(t, runs+1)
	w := &recycledWriter{h: make(http.Header)}
	f.serve(t, w, f.hit)
	hit := testing.AllocsPerRun(runs, func() { f.serve(t, w, f.hit) })
	next := 0
	miss := testing.AllocsPerRun(runs, func() {
		f.serve(t, w, f.miss[next])
		next++
	})
	t.Logf("allocations per /v1/route request: hit %.0f, miss %.0f", hit, miss)
	if hit > 12 {
		t.Errorf("cache hit allocates %.0f times, want at most 12", hit)
	}
	if miss > 15 {
		t.Errorf("cache miss allocates %.0f times, want at most 15", miss)
	}
}

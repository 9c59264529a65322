package httpapi

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpls"
	"repro/internal/route"
	"repro/internal/tracing"
)

// apiRequest is one request of the endpoint tables below.
type apiRequest struct {
	method, target, body string
	// volatile marks an answer that legitimately differs between two
	// identical requests (serving counters): only its status is compared.
	volatile bool
}

func (q apiRequest) build(id string) *http.Request {
	var body io.Reader
	if q.body != "" {
		body = strings.NewReader(q.body)
	}
	r := httptest.NewRequest(q.method, q.target, body)
	r.Header.Set("X-Request-ID", id)
	return r
}

// readRequests covers every read endpoint of the /v1 surface and a
// legacy alias: a route under every algorithm, the batch under a
// best-first and the CH class, evaluate, display, directions,
// alternates, reachable, the map, stats, snapshot and metrics
// endpoints, and the 4xx answers of a bad node, a bad algorithm and a
// wrong method. path is a route of the mpls network, for evaluate.
func readRequests(path graph.Path) []apiRequest {
	var reqs []apiRequest
	pairs := [][2]string{{"A", "B"}, {"G", "D"}, {"C", "F"}, {"17", "900"}}
	for _, algo := range core.Algorithms() {
		for _, p := range pairs {
			reqs = append(reqs, apiRequest{method: http.MethodGet,
				target: "/v1/route?from=" + p[0] + "&to=" + p[1] + "&algo=" + algo.String()})
		}
	}
	nodes := make([]string, len(path.Nodes))
	for i, u := range path.Nodes {
		nodes[i] = strconv.Itoa(int(u))
	}
	return append(reqs,
		apiRequest{method: http.MethodGet, target: "/v1/route?from=A&to=E&weight=1.5"},
		apiRequest{method: http.MethodPost, target: "/v1/routes/batch",
			body: `{"pairs":[{"from":"A","to":"B"},{"from":"G","to":"D"},{"from":"nowhere","to":"D"}],"algo":"dijkstra"}`},
		apiRequest{method: http.MethodPost, target: "/v1/routes/batch",
			body: `{"pairs":[{"from":"C","to":"F"},{"from":"E","to":"A"}],"algo":"ch"}`},
		apiRequest{method: http.MethodPost, target: "/v1/evaluate", body: `{"nodes":[` + strings.Join(nodes, ",") + `]}`},
		apiRequest{method: http.MethodGet, target: "/v1/display?from=A&to=B&algo=ch"},
		apiRequest{method: http.MethodGet, target: "/v1/directions?from=G&to=D"},
		apiRequest{method: http.MethodGet, target: "/v1/directions?from=C&to=F&algo=ch"},
		apiRequest{method: http.MethodGet, target: "/v1/alternates?from=A&to=D&k=3"},
		apiRequest{method: http.MethodGet, target: "/v1/reachable?from=A&budget=6"},
		apiRequest{method: http.MethodGet, target: "/v1/map"},
		apiRequest{method: http.MethodGet, target: "/v1/snapshot"},
		apiRequest{method: http.MethodGet, target: "/v1/stats", volatile: true},
		apiRequest{method: http.MethodGet, target: "/v1/metrics", volatile: true},
		apiRequest{method: http.MethodGet, target: "/route?from=E&to=F&algo=ch"},
		apiRequest{method: http.MethodGet, target: "/v1/route?from=ZZZ&to=B"},
		apiRequest{method: http.MethodGet, target: "/v1/route?from=A&to=B&algo=bogus"},
		apiRequest{method: http.MethodPost, target: "/v1/route?from=A&to=B"},
	)
}

// writeRequests are the traffic endpoints: a region, a batch and a reset.
var writeRequests = []apiRequest{
	{method: http.MethodPost, target: "/v1/traffic", body: `{"x":16,"y":16,"radius":6,"factor":2}`},
	{method: http.MethodPost, target: "/v1/traffic/batch", body: `{"changes":[{"from":"A","to":"0","factor":2}]}`},
	{method: http.MethodPost, target: "/v1/traffic/reset"},
}

// digester hashes everything a value reaches, following pointers, for
// the immutability check below. Fields of the sync and sync/atomic
// packages are skipped: locks, pools and the lazily filled caches behind
// atomics (the graph's reverse view) are the parts meant to change, and
// so is time.Location's zone cache. A pointer already hashed contributes
// a marker, so shared structure (a snapshot's graph and its planner's) is
// hashed once and cycles end.
type digester struct {
	h    hash.Hash64
	seen map[uintptr]bool
	buf  [8]byte
}

func digestOf(v reflect.Value) uint64 {
	d := &digester{h: fnv.New64a(), seen: map[uintptr]bool{}}
	d.value(v)
	return d.h.Sum64()
}

func (d *digester) word(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

func (d *digester) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			d.word(1)
		} else {
			d.word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.word(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.word(math.Float64bits(v.Float()))
	case reflect.String:
		d.word(uint64(v.Len()))
		d.h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		d.word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Struct:
		if pkg := v.Type().PkgPath(); pkg == "sync" || pkg == "sync/atomic" ||
			(pkg == "time" && v.Type().Name() == "Location") {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			d.word(0)
			return
		}
		if d.seen[v.Pointer()] {
			d.word(1)
			return
		}
		d.seen[v.Pointer()] = true
		d.value(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			d.word(0)
			return
		}
		d.h.Write([]byte(v.Elem().Type().String()))
		d.value(v.Elem())
	case reflect.Map:
		// Entry digests summed: independent of iteration order.
		var sum uint64
		it := v.MapRange()
		for it.Next() {
			sum += digestOf(it.Key())*31 + digestOf(it.Value())
		}
		d.word(uint64(v.Len()))
		d.word(sum)
	}
}

// cachedRoutes digests every resident route-cache entry, by key.
func cachedRoutes(t *testing.T, svc *route.Service) map[uint64]uint64 {
	t.Helper()
	cache := reflect.ValueOf(svc).Elem().FieldByName("cache")
	if !cache.IsValid() {
		t.Fatal("route.Service has no cache field; update cachedRoutes")
	}
	shards := cache.Elem().FieldByName("shards")
	out := map[uint64]uint64{}
	for i := 0; i < shards.Len(); i++ {
		it := shards.Index(i).FieldByName("table").MapRange()
		for it.Next() {
			entry := it.Value().Elem().FieldByName("Value").Elem()
			out[digestOf(it.Key())] = digestOf(entry)
		}
	}
	return out
}

// TestSnapshotDigestsUnchangedByReads pins the immutability of every
// value the service publishes to concurrent readers: the snapshot (its
// graph and costs, its planner, and the CH index's topology and
// metric), the pristine base graph the topology was built from, and
// every cached route. It digests them, serves every read endpoint once
// in order, then from four goroutines at once, and requires the digests
// unchanged and every concurrent answer equal to the serial one. Under
// -race a write into any of them also shows as a data race.
func TestSnapshotDigestsUnchangedByReads(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{})
	svc := route.NewService(g)
	if err := svc.EnableCH(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ApplyRegionCongestionCtx(context.Background(), graph.Point{X: 16, Y: 16}, 8, 1.7); err != nil {
		t.Fatal(err)
	}
	sn := svc.Snapshot()
	a, _ := g.Lookup("A")
	b, _ := g.Lookup("B")
	rt, err := svc.ComputeIn(context.Background(), sn, a, b, core.Options{Algorithm: core.Dijkstra})
	if err != nil || !rt.Found {
		t.Fatalf("A→B: found=%v err=%v", rt.Found, err)
	}
	h := NewServer(svc, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))).Handler()
	reqs := readRequests(rt.Path)

	published := digestOf(reflect.ValueOf(sn))
	if sn.CH() == nil {
		t.Fatal("snapshot carries no CH index")
	}

	type answer struct {
		code int
		body string
	}
	serve := func(i int) answer {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, reqs[i].build("req-"+strconv.Itoa(i)))
		return answer{w.Code, w.Body.String()}
	}
	want := make([]answer, len(reqs))
	for i := range reqs {
		want[i] = serve(i)
	}
	cached := cachedRoutes(t, svc)
	if len(cached) == 0 {
		t.Fatal("the serial pass cached no route")
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for j := range reqs {
					i := (j*7 + w*5 + round) % len(reqs)
					got := serve(i)
					q := reqs[i]
					if got.code != want[i].code || (!q.volatile && got.body != want[i].body) {
						t.Errorf("%s %s: answered %d %q, serially %d %q",
							q.method, q.target, got.code, got.body, want[i].code, want[i].body)
						return // one mismatch per reader is evidence enough
					}
				}
			}
		}()
	}
	wg.Wait()

	if svc.Snapshot() != sn {
		t.Fatal("a read published a snapshot")
	}
	if got := digestOf(reflect.ValueOf(sn)); got != published {
		t.Errorf("the published snapshot changed under reads: digest %x, was %x", got, published)
	}
	after := cachedRoutes(t, svc)
	for k, d := range cached {
		if got, ok := after[k]; ok && got != d {
			t.Errorf("a cached route changed under reads: digest %x, was %x", got, d)
		}
	}
}

// TestEverySpanEnded drives every endpoint at trace sample rate 1 —
// reads under every algorithm, the traffic writes, the 4xx answers, a
// shed request (503) and a degraded one, a canceled one (499) and one
// past its deadline (504) — and requires every span of every captured
// trace to have ended. A span a phase forgets to End stays open in its
// trace forever: its duration is garbage and the phase appears to run
// until the request finishes.
func TestEverySpanEnded(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{})
	svc := route.NewService(g)
	if err := svc.EnableCH(); err != nil {
		t.Fatal(err)
	}
	a, _ := g.Lookup("A")
	b, _ := g.Lookup("B")
	rt, err := svc.ComputeCtx(context.Background(), a, b, core.Options{})
	if err != nil || !rt.Found {
		t.Fatalf("A→B: found=%v err=%v", rt.Found, err)
	}
	api := NewServer(svc,
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
		WithAdmission(admission.Config{MaxInFlight: 4, MaxQueue: 1, Degrade: true}),
		WithTracing(tracing.Config{SampleRate: 1, Capacity: 1 << 12}))
	h := api.Handler()

	statuses := map[int]bool{}
	served := 0
	do := func(q apiRequest, ctx context.Context) {
		r := q.build("req-" + strconv.Itoa(served))
		if ctx != nil {
			r = r.WithContext(ctx)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		statuses[w.Code] = true
		served++
	}
	reqs := append(readRequests(rt.Path), writeRequests...)
	for _, q := range append(reqs, readRequests(rt.Path)...) {
		do(q, nil)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, q := range []apiRequest{
		{method: http.MethodGet, target: "/v1/route?from=C&to=D"},
		{method: http.MethodPost, target: "/v1/routes/batch", body: `{"pairs":[{"from":"E","to":"G"}]}`},
		{method: http.MethodGet, target: "/v1/alternates?from=B&to=C&k=2"},
	} {
		do(q, canceled)
		do(q, expired)
	}
	drain := saturate(t, api)
	do(apiRequest{method: http.MethodGet, target: "/v1/route?from=G&to=B&algo=ch"}, nil) // degraded
	do(apiRequest{method: http.MethodPost, target: "/v1/routes/batch", body: `{"pairs":[{"from":"E","to":"G"}]}`}, nil)
	drain()

	for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed,
		StatusClientClosedRequest, http.StatusServiceUnavailable, http.StatusGatewayTimeout} {
		if !statuses[code] {
			t.Errorf("no request answered %d; the table lost a path", code)
		}
	}
	traces := api.Tracer().Recent(0)
	if len(traces) != served {
		t.Fatalf("%d traces captured for %d requests", len(traces), served)
	}
	names := map[string]bool{}
	var walk func(id string, n tracing.SpanNode)
	walk = func(id string, n tracing.SpanNode) {
		names[n.Name] = true
		if n.Open {
			t.Errorf("trace %s: span %q never ended", id, n.Name)
		}
		for _, c := range n.Children {
			walk(id, c)
		}
	}
	for _, sum := range traces {
		snap, ok := api.Tracer().Get(sum.TraceID)
		if !ok {
			t.Fatalf("trace %s listed but not retrievable", sum.TraceID)
		}
		walk(sum.TraceID, snap.Root)
	}
	for _, name := range []string{"admission", "route.cache", "kernel", "ch.unpack", "ch.customize"} {
		if !names[name] {
			t.Errorf("no trace holds a %q span; the table lost a path", name)
		}
	}
}

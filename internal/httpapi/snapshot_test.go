package httpapi

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpls"
	"repro/internal/route"
	"repro/internal/search"
)

// TestSnapshotHeaderAdvancesOnMutation pins the per-response snapshot
// identity: every response carries X-ATIS-Snapshot, and a traffic
// mutation publishes a new world, so the header value strictly
// increases across the write.
func TestSnapshotHeaderAdvancesOnMutation(t *testing.T) {
	ts := newTestServer(t)

	resp := getJSON(t, ts.URL+"/v1/route?from=0&to=5", nil)
	before, err := strconv.ParseUint(resp.Header.Get("X-ATIS-Snapshot"), 10, 64)
	if err != nil {
		t.Fatalf("X-ATIS-Snapshot %q: %v", resp.Header.Get("X-ATIS-Snapshot"), err)
	}

	if resp := postJSON(t, ts.URL+"/v1/traffic", `{"x":16,"y":16,"radius":5,"factor":4}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic: %d", resp.StatusCode)
	}

	resp = getJSON(t, ts.URL+"/v1/route?from=0&to=5", nil)
	after, err := strconv.ParseUint(resp.Header.Get("X-ATIS-Snapshot"), 10, 64)
	if err != nil {
		t.Fatalf("X-ATIS-Snapshot %q: %v", resp.Header.Get("X-ATIS-Snapshot"), err)
	}
	if after <= before {
		t.Fatalf("snapshot header did not advance across a mutation: %d → %d", before, after)
	}
}

// TestSnapshotEndpoint checks GET /v1/snapshot returns the published
// identity with the same generation the response header carries, plus
// the CH readiness block.
func TestSnapshotEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// One traffic mutation, so the cost generation the version field
	// carries is not the zero every counter starts at.
	if resp := postJSON(t, ts.URL+"/v1/traffic", `{"x":16,"y":16,"radius":5,"factor":2}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/traffic: %d", resp.StatusCode)
	}

	var body struct {
		Version        uint64         `json:"version"`
		Generation     uint64         `json:"generation"`
		PublishedAt    string         `json:"publishedAt"`
		CostGeneration uint64         `json:"costGeneration"`
		CH             map[string]any `json:"ch"`
	}
	resp := getJSON(t, ts.URL+"/v1/snapshot", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/snapshot: %d", resp.StatusCode)
	}
	if body.Generation == 0 {
		t.Error("snapshot generation is 0; the seed snapshot publishes at 1")
	}
	// "version" is the cost generation under its older wire name.
	if body.CostGeneration != 1 || body.Version != body.CostGeneration {
		t.Errorf("version %d, costGeneration %d; want both 1", body.Version, body.CostGeneration)
	}
	if body.PublishedAt == "" {
		t.Error("snapshot publishedAt missing")
	}
	if body.CH == nil {
		t.Error("snapshot ch block missing")
	} else if _, ok := body.CH["ready"]; !ok {
		t.Errorf("snapshot ch block lacks ready: %v", body.CH)
	}
	hdr := resp.Header.Get("X-ATIS-Snapshot")
	if hdr != strconv.FormatUint(body.Generation, 10) {
		t.Errorf("X-ATIS-Snapshot %q disagrees with body generation %d", hdr, body.Generation)
	}

	// The same identity block appears in /v1/stats, under "snapshot".
	var stats struct {
		CostGeneration uint64 `json:"costGeneration"`
		Snapshot       struct {
			Generation  uint64 `json:"generation"`
			PublishedAt string `json:"publishedAt"`
		} `json:"snapshot"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Snapshot.Generation == 0 || stats.Snapshot.PublishedAt == "" {
		t.Errorf("stats snapshot block incomplete: %+v", stats.Snapshot)
	}

	// /v1/snapshot is new with /v1 — no unversioned alias exists.
	if resp := getJSON(t, ts.URL+"/snapshot", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /snapshot (no legacy alias expected): %d", resp.StatusCode)
	}
}

// TestLegacyAliasDeprecationHeaders pins the consolidation satellite:
// every unversioned alias is served through one deprecation funnel that
// stamps Deprecation, a successor Link, and the RFC 8594 Sunset date,
// while the /v1 path stays clean.
func TestLegacyAliasDeprecationHeaders(t *testing.T) {
	ts := newTestServer(t)

	legacy := getJSON(t, ts.URL+"/route?from=0&to=5", nil)
	if legacy.StatusCode != http.StatusOK {
		t.Fatalf("GET /route: %d", legacy.StatusCode)
	}
	if got := legacy.Header.Get("Deprecation"); got != "true" {
		t.Errorf("legacy Deprecation = %q, want \"true\"", got)
	}
	if got := legacy.Header.Get("Link"); got != `</v1/route>; rel="successor-version"` {
		t.Errorf("legacy Link = %q", got)
	}
	if got := legacy.Header.Get("Sunset"); got != legacySunset {
		t.Errorf("legacy Sunset = %q, want %q", got, legacySunset)
	}

	// Wrong-method requests on a legacy path go through the same funnel.
	wrongMethod := postJSON(t, ts.URL+"/route", "{}", nil)
	if wrongMethod.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /route: %d", wrongMethod.StatusCode)
	}
	if wrongMethod.Header.Get("Deprecation") != "true" || wrongMethod.Header.Get("Sunset") == "" {
		t.Error("legacy 405 path skipped the deprecation funnel")
	}

	v1 := getJSON(t, ts.URL+"/v1/route?from=0&to=5", nil)
	if v1.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/route: %d", v1.StatusCode)
	}
	for _, h := range []string{"Deprecation", "Link", "Sunset"} {
		if got := v1.Header.Get(h); got != "" {
			t.Errorf("/v1 path unexpectedly carries %s: %q", h, got)
		}
	}
}

// provenanceFixture serves an mpls service over HTTP while a mutator
// publishes random traffic batches under the readers. worlds maps every
// published generation to its snapshot; only the mutator publishes, so
// the snapshot it loads after a batch is the one that batch published.
type provenanceFixture struct {
	g   *graph.Graph
	url string

	mu     sync.Mutex
	worlds map[string]*route.Snapshot

	stop    chan struct{}
	mutated chan struct{}
}

func newProvenanceFixture(t *testing.T) *provenanceFixture {
	t.Helper()
	g := mpls.MustGenerate(mpls.Config{})
	svc := route.NewService(g)
	ts := httptest.NewServer(NewServer(svc, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))).Handler())
	t.Cleanup(ts.Close)
	f := &provenanceFixture{
		g: g, url: ts.URL,
		worlds:  map[string]*route.Snapshot{svc.Snapshot().GenerationText(): svc.Snapshot()},
		stop:    make(chan struct{}),
		mutated: make(chan struct{}),
	}
	edges := g.Edges()
	go func() {
		defer close(f.mutated)
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-f.stop:
				return
			default:
			}
			changes := make([]graph.EdgeCostChange, 0, 300)
			for i := 0; i < 300; i++ {
				e := edges[rng.Intn(len(edges))]
				base, _ := g.ArcCost(e.Tail, e.Head)
				changes = append(changes, graph.EdgeCostChange{Tail: e.Tail, Head: e.Head,
					Cost: base * []float64{1, 1.5, 2, 4}[rng.Intn(4)]})
			}
			if _, err := svc.ApplyTrafficBatchCtx(context.Background(), changes); err != nil {
				t.Error(err)
				return
			}
			sn := svc.Snapshot()
			f.mu.Lock()
			f.worlds[sn.GenerationText()] = sn
			f.mu.Unlock()
		}
	}()
	return f
}

// finish stops the mutator and waits for it.
func (f *provenanceFixture) finish() {
	close(f.stop)
	<-f.mutated
}

// world returns the snapshot gen names, failing if none was published
// under it.
func (f *provenanceFixture) world(t *testing.T, gen string) *route.Snapshot {
	t.Helper()
	f.mu.Lock()
	sn := f.worlds[gen]
	f.mu.Unlock()
	if sn == nil {
		t.Fatalf("a response names snapshot %s, which was never published", gen)
	}
	return sn
}

// checkCost fails unless cost is Dijkstra's from→to cost on the snapshot
// gen names.
func (f *provenanceFixture) checkCost(t *testing.T, gen string, from, to graph.NodeID, cost float64) {
	t.Helper()
	want, err := search.Dijkstra(f.world(t, gen).Graph(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !near(cost, want.Cost) {
		t.Fatalf("%d→%d: served cost %v, but Dijkstra on snapshot %s gives %v", from, to, cost, gen, want.Cost)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// checkGenerations fails unless the answers came from at least 10
// snapshots: fewer means the mutator did not publish under the readers.
func checkGenerations(t *testing.T, gens map[string]bool) {
	t.Helper()
	if len(gens) < 10 {
		t.Fatalf("answers came from %d snapshots; the mutator did not publish under the readers", len(gens))
	}
}

// TestRouteSnapshotProvenanceUnderMutation pins which world answers a /v1/route
// request while traffic batches publish new snapshots under it: the
// served cost equals the evaluation's currentCost, and equals Dijkstra's
// cost on the snapshot whose generation X-ATIS-Snapshot names. Both hold
// only if the route, its evaluation and the header come from one
// snapshot.
func TestRouteSnapshotProvenanceUnderMutation(t *testing.T) {
	f := newProvenanceFixture(t)
	type answer struct {
		gen      string
		from, to graph.NodeID
		rr       RouteResponse
	}
	var answers []answer
	rng := rand.New(rand.NewSource(11))
	n := f.g.NumNodes()
	for i := 0; i < 400; i++ {
		from, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		var rr RouteResponse
		resp := getJSON(t, f.url+"/v1/route?from="+strconv.Itoa(int(from))+"&to="+strconv.Itoa(int(to)), &rr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("route %d→%d: status %d", from, to, resp.StatusCode)
		}
		answers = append(answers, answer{resp.Header.Get("X-ATIS-Snapshot"), from, to, rr})
	}
	f.finish()

	gens := map[string]bool{}
	for _, a := range answers {
		gens[a.gen] = true
		if !a.rr.Found {
			continue
		}
		if a.rr.Evaluation == nil || !near(a.rr.Cost, a.rr.Evaluation.CurrentCost) {
			t.Fatalf("route %d→%d on snapshot %s: cost %v, evaluation %+v", a.from, a.to, a.gen, a.rr.Cost, a.rr.Evaluation)
		}
		f.checkCost(t, a.gen, a.from, a.to, a.rr.Cost)
	}
	checkGenerations(t, gens)
}

// TestBatchSnapshotProvenanceUnderMutation is the /v1/routes/batch case
// of the same pin: every item of a batch is priced on the snapshot its
// response's X-ATIS-Snapshot names.
func TestBatchSnapshotProvenanceUnderMutation(t *testing.T) {
	f := newProvenanceFixture(t)
	type answer struct {
		gen   string
		pairs [][2]graph.NodeID
		body  struct{ Routes []RouteResponse }
	}
	var answers []answer
	rng := rand.New(rand.NewSource(13))
	n := f.g.NumNodes()
	for i := 0; i < 150; i++ {
		a := answer{}
		var req strings.Builder
		req.WriteString(`{"pairs":[`)
		for j := 0; j < 8; j++ {
			from, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			a.pairs = append(a.pairs, [2]graph.NodeID{from, to})
			if j > 0 {
				req.WriteString(",")
			}
			fmt.Fprintf(&req, `{"from":"%d","to":"%d"}`, from, to)
		}
		req.WriteString("]}")
		resp := postJSON(t, f.url+"/v1/routes/batch", req.String(), &a.body)
		if resp.StatusCode != http.StatusOK || len(a.body.Routes) != len(a.pairs) {
			t.Fatalf("batch: status %d, %d routes for %d pairs", resp.StatusCode, len(a.body.Routes), len(a.pairs))
		}
		a.gen = resp.Header.Get("X-ATIS-Snapshot")
		answers = append(answers, a)
	}
	f.finish()

	gens := map[string]bool{}
	for _, a := range answers {
		gens[a.gen] = true
		for j, rr := range a.body.Routes {
			if rr.Found {
				f.checkCost(t, a.gen, a.pairs[j][0], a.pairs[j][1], rr.Cost)
			}
		}
	}
	checkGenerations(t, gens)
}

// TestDirectionsSnapshotProvenanceUnderMutation is the /v1/directions
// case: the guidance's cost is priced on the snapshot the response names.
func TestDirectionsSnapshotProvenanceUnderMutation(t *testing.T) {
	f := newProvenanceFixture(t)
	type answer struct {
		gen      string
		from, to graph.NodeID
		cost     float64
	}
	var answers []answer
	rng := rand.New(rand.NewSource(17))
	n := f.g.NumNodes()
	for len(answers) < 400 {
		from, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		var body struct{ Cost float64 }
		resp := getJSON(t, f.url+"/v1/directions?from="+strconv.Itoa(int(from))+"&to="+strconv.Itoa(int(to)), &body)
		switch resp.StatusCode {
		case http.StatusOK:
			answers = append(answers, answer{resp.Header.Get("X-ATIS-Snapshot"), from, to, body.Cost})
		case http.StatusNotFound: // no route between the pair
		default:
			t.Fatalf("directions %d→%d: status %d", from, to, resp.StatusCode)
		}
	}
	f.finish()

	gens := map[string]bool{}
	for _, a := range answers {
		gens[a.gen] = true
		f.checkCost(t, a.gen, a.from, a.to, a.cost)
	}
	checkGenerations(t, gens)
}

// maxProvenanceRequests bounds the requests a provenance test sends
// while it waits for answers from enough snapshots: on a loaded machine
// fast requests can outrun the mutator's publishes.
const maxProvenanceRequests = 20000

// TestAlternatesSnapshotProvenanceUnderMutation is the /v1/alternates
// case: on the snapshot the response names, the first alternate costs
// what Dijkstra gives and every alternate's path prices to its reported
// cost. Both hold only if the whole Yen family and the header come from
// one snapshot.
func TestAlternatesSnapshotProvenanceUnderMutation(t *testing.T) {
	f := newProvenanceFixture(t)
	type alt struct {
		Cost  float64 `json:"cost"`
		Nodes []int32 `json:"nodes"`
	}
	type answer struct {
		gen      string
		from, to graph.NodeID
		routes   []alt
	}
	var answers []answer
	gens := map[string]bool{}
	rng := rand.New(rand.NewSource(19))
	n := f.g.NumNodes()
	for i := 0; i < 150 || (len(gens) < 10 && i < maxProvenanceRequests); i++ {
		from, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		var body struct{ Routes []alt }
		resp := getJSON(t, f.url+"/v1/alternates?from="+strconv.Itoa(int(from))+"&to="+strconv.Itoa(int(to))+"&k=3", &body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alternates %d→%d: status %d", from, to, resp.StatusCode)
		}
		a := answer{resp.Header.Get("X-ATIS-Snapshot"), from, to, body.Routes}
		answers = append(answers, a)
		gens[a.gen] = true
	}
	f.finish()

	for _, a := range answers {
		if len(a.routes) == 0 {
			continue
		}
		f.checkCost(t, a.gen, a.from, a.to, a.routes[0].Cost)
		g := f.world(t, a.gen).Graph()
		for j, rt := range a.routes {
			var cost float64
			for i := 0; i+1 < len(rt.Nodes); i++ {
				c, ok := g.ArcCost(graph.NodeID(rt.Nodes[i]), graph.NodeID(rt.Nodes[i+1]))
				if !ok {
					t.Fatalf("%d→%d alternate %d: %d→%d is not an arc", a.from, a.to, j, rt.Nodes[i], rt.Nodes[i+1])
				}
				cost += c
			}
			if !near(cost, rt.Cost) {
				t.Fatalf("%d→%d alternate %d: reported cost %v, but its path costs %v on snapshot %s", a.from, a.to, j, rt.Cost, cost, a.gen)
			}
		}
	}
	checkGenerations(t, gens)
}

// TestReachableSnapshotProvenanceUnderMutation is the /v1/reachable
// case: every reached node's cost equals its single-source cost on the
// snapshot the response names.
func TestReachableSnapshotProvenanceUnderMutation(t *testing.T) {
	f := newProvenanceFixture(t)
	type answer struct {
		gen   string
		from  graph.NodeID
		nodes map[string]float64
	}
	var answers []answer
	gens := map[string]bool{}
	rng := rand.New(rand.NewSource(23))
	n := f.g.NumNodes()
	for i := 0; i < 300 || (len(gens) < 10 && i < maxProvenanceRequests); i++ {
		from := graph.NodeID(rng.Intn(n))
		var body struct{ Nodes map[string]float64 }
		resp := getJSON(t, f.url+"/v1/reachable?from="+strconv.Itoa(int(from))+"&budget=4", &body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reachable from %d: status %d", from, resp.StatusCode)
		}
		a := answer{resp.Header.Get("X-ATIS-Snapshot"), from, body.Nodes}
		answers = append(answers, a)
		gens[a.gen] = true
	}
	f.finish()

	for _, a := range answers {
		dist, _ := search.SingleSource(f.world(t, a.gen).Graph(), a.from)
		for id, cost := range a.nodes {
			u, err := strconv.Atoi(id)
			if err != nil || u < 0 || u >= len(dist) {
				t.Fatalf("reachable from %d: bad node %q", a.from, id)
			}
			if !near(cost, dist[u]) {
				t.Fatalf("reachable from %d: node %d served cost %v, but SingleSource on snapshot %s gives %v", a.from, u, cost, a.gen, dist[u])
			}
		}
	}
	checkGenerations(t, gens)
}

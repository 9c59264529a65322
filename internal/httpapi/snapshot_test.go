package httpapi

import (
	"context"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// TestRouteSnapshotProvenanceUnderMutation pins which world answers a /v1/route
// request while traffic batches publish new snapshots under it: the
// served cost equals the evaluation's currentCost, and equals Dijkstra's
// cost on the snapshot whose generation X-ATIS-Snapshot names. Both hold
// only if the route, its evaluation and the header come from one
// snapshot.
func TestRouteSnapshotProvenanceUnderMutation(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{})
	svc := route.NewService(g)
	ts := httptest.NewServer(NewServer(svc, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))).Handler())
	t.Cleanup(ts.Close)

	// worlds maps every published generation to its snapshot; only the
	// mutator below publishes, so the snapshot it loads after a batch is
	// the one that batch published.
	var mu sync.Mutex
	worlds := map[string]*route.Snapshot{svc.Snapshot().GenerationText(): svc.Snapshot()}
	edges := g.Edges()
	stop := make(chan struct{})
	mutated := make(chan struct{})
	go func() {
		defer close(mutated)
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
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
			mu.Lock()
			worlds[sn.GenerationText()] = sn
			mu.Unlock()
		}
	}()

	type answer struct {
		gen      string
		from, to graph.NodeID
		rr       RouteResponse
	}
	var answers []answer
	rng := rand.New(rand.NewSource(11))
	n := g.NumNodes()
	for i := 0; i < 400; i++ {
		from, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		var rr RouteResponse
		resp := getJSON(t, ts.URL+"/v1/route?from="+strconv.Itoa(int(from))+"&to="+strconv.Itoa(int(to)), &rr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("route %d→%d: status %d", from, to, resp.StatusCode)
		}
		answers = append(answers, answer{resp.Header.Get("X-ATIS-Snapshot"), from, to, rr})
	}
	close(stop)
	<-mutated

	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	gens := map[string]bool{}
	for _, a := range answers {
		gens[a.gen] = true
		if !a.rr.Found {
			continue
		}
		if a.rr.Evaluation == nil || !near(a.rr.Cost, a.rr.Evaluation.CurrentCost) {
			t.Fatalf("route %d→%d on snapshot %s: cost %v, evaluation %+v", a.from, a.to, a.gen, a.rr.Cost, a.rr.Evaluation)
		}
		sn := worlds[a.gen]
		if sn == nil {
			t.Fatalf("route %d→%d names snapshot %s, which was never published", a.from, a.to, a.gen)
		}
		want, err := search.Dijkstra(sn.Graph(), a.from, a.to)
		if err != nil {
			t.Fatal(err)
		}
		if !near(a.rr.Cost, want.Cost) {
			t.Fatalf("route %d→%d: served cost %v, but Dijkstra on snapshot %s gives %v", a.from, a.to, a.rr.Cost, a.gen, want.Cost)
		}
	}
	if len(gens) < 10 {
		t.Fatalf("answers came from %d snapshots; the mutator did not publish under the readers", len(gens))
	}
}

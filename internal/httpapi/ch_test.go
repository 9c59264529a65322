package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mpls"
	"repro/internal/route"
)

// newCHTestServer is newTestServer with the contraction hierarchy built,
// so algo=ch is served by the index.
func newCHTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	g := mpls.MustGenerate(mpls.Config{})
	svc := route.NewService(g)
	if err := svc.EnableCH(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestRouteEndpointCH(t *testing.T) {
	ts := newCHTestServer(t)
	var chRR, dijRR RouteResponse
	if resp := getJSON(t, ts.URL+"/route?from=G&to=D&algo=ch", &chRR); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if chRR.Algorithm != "ch" {
		t.Fatalf("served by %q, want ch", chRR.Algorithm)
	}
	if !chRR.Found || len(chRR.Nodes) < 2 {
		t.Fatalf("ch route response: %+v", chRR)
	}
	getJSON(t, ts.URL+"/route?from=G&to=D&algo=dijkstra", &dijRR)
	if diff := chRR.Cost - dijRR.Cost; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ch cost %v disagrees with dijkstra %v", chRR.Cost, dijRR.Cost)
	}
}

func TestStatsReportsCH(t *testing.T) {
	ts := newCHTestServer(t)
	var rr RouteResponse
	getJSON(t, ts.URL+"/route?from=G&to=D&algo=ch", &rr)
	var stats struct {
		CH route.CHStats `json:"ch"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if !stats.CH.Ready {
		t.Fatalf("stats ch block: %+v", stats.CH)
	}
	if stats.CH.Queries == 0 {
		t.Fatalf("index query not counted: %+v", stats.CH)
	}
	before := stats.CH

	// A traffic mutation re-customizes before it returns: the next CH
	// request is index-served, and the structure is never rebuilt.
	var applied map[string]int
	if resp := postJSON(t, ts.URL+"/traffic", `{"x":16,"y":16,"radius":5,"factor":4}`, &applied); resp.StatusCode != http.StatusOK || applied["affectedEdges"] == 0 {
		t.Fatalf("traffic: %d %v", resp.StatusCode, applied)
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if !stats.CH.Ready || stats.CH.Rebuilds != 1 || stats.CH.Customizations != before.Customizations+1 {
		t.Fatalf("after a mutation: %+v, want ready, 1 rebuild, one more customization than %+v", stats.CH, before)
	}
	if resp := getJSON(t, ts.URL+"/route?from=G&to=D&algo=ch", &rr); resp.StatusCode != http.StatusOK {
		t.Fatalf("ch route after mutation: status %d", resp.StatusCode)
	}
	if !rr.Found || rr.Algorithm != "ch" {
		t.Fatalf("ch route after mutation: %+v", rr)
	}
}

// TestRouteEndpointCHDisabled: algo=ch on a server whose service never
// called EnableCH answers 400 in the error envelope, not a route from
// another algorithm.
func TestRouteEndpointCHDisabled(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/route?from=G&to=D&algo=ch")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	env := decodeError(t, resp)
	if env.Error.Code != CodeBadRequest || !strings.Contains(env.Error.Message, "EnableCH") || env.Error.RequestID == "" {
		t.Fatalf("error envelope %+v", env.Error)
	}
}

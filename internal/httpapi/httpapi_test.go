package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpls"
	"repro/internal/route"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	g := mpls.MustGenerate(mpls.Config{})
	ts := httptest.NewServer(NewServer(route.NewService(g)).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestRouteEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var rr RouteResponse
	resp := getJSON(t, ts.URL+"/route?from=G&to=D", &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !rr.Found || rr.Cost <= 0 || len(rr.Nodes) < 2 {
		t.Errorf("route response: %+v", rr)
	}
	if rr.Algorithm != "astar-euclidean" {
		t.Errorf("default algorithm %q", rr.Algorithm)
	}
	if rr.Evaluation == nil || rr.Evaluation.Hops != len(rr.Nodes)-1 {
		t.Errorf("evaluation: %+v", rr.Evaluation)
	}
}

func TestRouteEndpointNumericIDsAndAlgo(t *testing.T) {
	ts := newTestServer(t)
	var rr RouteResponse
	getJSON(t, ts.URL+"/route?from=0&to=1&algo=dijkstra", &rr)
	if rr.Algorithm != "dijkstra" {
		t.Errorf("algorithm %q", rr.Algorithm)
	}
}

func TestRouteEndpointErrors(t *testing.T) {
	ts := newTestServer(t)
	for _, q := range []string{
		"from=ZZZ&to=D",
		"from=G&to=99999",
		"from=G&to=D&algo=quantum",
		"from=G&to=D&weight=-2",
		"from=G&to=D&weight=abc",
	} {
		resp := getJSON(t, ts.URL+"/route?"+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var rr RouteResponse
	getJSON(t, ts.URL+"/route?from=G&to=D", &rr)

	nodes, _ := json.Marshal(map[string]any{"nodes": rr.Nodes})
	var ev Evaluation
	resp := postJSON(t, ts.URL+"/evaluate", string(nodes), &ev)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ev.Hops != len(rr.Nodes)-1 || ev.CongestionRatio != 1 {
		t.Errorf("evaluation: %+v", ev)
	}
	// Method and body validation.
	if resp := getJSON(t, ts.URL+"/evaluate", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /evaluate: %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/evaluate", "{bad json", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json: %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/evaluate", `{"nodes":[0,999]}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-path: %d", resp.StatusCode)
	}
}

func TestDisplayEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/display?from=G&to=D")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 64*1024)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{"S", "D", "."} {
		if !strings.Contains(body, want) {
			t.Errorf("display missing %q", want)
		}
	}
}

func TestTrafficRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	var before RouteResponse
	getJSON(t, ts.URL+"/route?from=C&to=D&algo=dijkstra", &before)

	var applied map[string]int
	resp := postJSON(t, ts.URL+"/traffic", `{"x":16,"y":16,"radius":5,"factor":4}`, &applied)
	if resp.StatusCode != http.StatusOK || applied["affectedEdges"] == 0 {
		t.Fatalf("traffic: %d %v", resp.StatusCode, applied)
	}

	var during RouteResponse
	getJSON(t, ts.URL+"/route?from=C&to=D&algo=dijkstra", &during)
	if during.Cost <= before.Cost {
		t.Errorf("congestion did not raise the best cost: %v vs %v", during.Cost, before.Cost)
	}

	resp = postJSON(t, ts.URL+"/traffic/reset", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reset: %d", resp.StatusCode)
	}
	var after RouteResponse
	getJSON(t, ts.URL+"/route?from=C&to=D&algo=dijkstra", &after)
	if after.Cost != before.Cost {
		t.Errorf("reset did not restore: %v vs %v", after.Cost, before.Cost)
	}

	// Validation paths.
	if resp := getJSON(t, ts.URL+"/traffic", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /traffic: %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/traffic", `{"factor":-1}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative factor: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/traffic/reset", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /traffic/reset: %d", resp.StatusCode)
	}
}

func TestTrafficBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var before RouteResponse
	getJSON(t, ts.URL+"/v1/route?from=C&to=D&algo=dijkstra", &before)
	if !before.Found {
		t.Fatal("no baseline route")
	}

	// Double every edge of the current best path in one batch: the new
	// best cost must rise (any alternate was already no cheaper).
	type change struct {
		From   string   `json:"from"`
		To     string   `json:"to"`
		Cost   *float64 `json:"cost,omitempty"`
		Factor *float64 `json:"factor,omitempty"`
	}
	double := 2.0
	var changes []change
	for i := 0; i+1 < len(before.Nodes); i++ {
		changes = append(changes, change{
			From:   strconv.Itoa(int(before.Nodes[i])),
			To:     strconv.Itoa(int(before.Nodes[i+1])),
			Factor: &double,
		})
	}
	body, _ := json.Marshal(map[string]any{"changes": changes})
	var applied map[string]int
	resp := postJSON(t, ts.URL+"/v1/traffic/batch", string(body), &applied)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	if applied["affectedEdges"] < len(changes) || applied["changes"] != len(changes) {
		t.Fatalf("batch response: %v (want ≥%d affected)", applied, len(changes))
	}

	var during RouteResponse
	getJSON(t, ts.URL+"/v1/route?from=C&to=D&algo=dijkstra", &during)
	if during.Cost <= before.Cost {
		t.Errorf("batch congestion did not raise the best cost: %v vs %v", during.Cost, before.Cost)
	}

	postJSON(t, ts.URL+"/v1/traffic/reset", "", nil)
	var after RouteResponse
	getJSON(t, ts.URL+"/v1/route?from=C&to=D&algo=dijkstra", &after)
	if after.Cost != before.Cost {
		t.Errorf("reset did not restore: %v vs %v", after.Cost, before.Cost)
	}

	// Validation paths: all leave the graph untouched.
	for name, bad := range map[string]string{
		"empty batch":     `{"changes":[]}`,
		"bad json":        `{nope`,
		"both set":        `{"changes":[{"from":"C","to":"D","cost":1,"factor":2}]}`,
		"neither set":     `{"changes":[{"from":"C","to":"D"}]}`,
		"unknown node":    `{"changes":[{"from":"ZZZ","to":"D","cost":1}]}`,
		"negative cost":   `{"changes":[{"from":"C","to":"D","cost":-1}]}`,
		"negative factor": `{"changes":[{"from":"C","to":"D","factor":-1}]}`,
	} {
		if resp := postJSON(t, ts.URL+"/v1/traffic/batch", bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/traffic/batch", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/traffic/batch: %d", resp.StatusCode)
	}
	var final RouteResponse
	getJSON(t, ts.URL+"/v1/route?from=C&to=D&algo=dijkstra", &final)
	if final.Cost != before.Cost {
		t.Errorf("rejected batches mutated the graph: %v vs %v", final.Cost, before.Cost)
	}
}

// TestTrafficBatchRejectsOverflowingFactors pins the compounding check:
// each factor is finite, but 1e300 twice overflows the edge cost to +Inf.
// The trailing 0 is refused on its own (TestTrafficRejectsZeroFactor).
// The batch is refused as a whole — 400 bad_request, no new snapshot,
// the edge cost untouched.
func TestTrafficBatchRejectsOverflowingFactors(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{})
	ts := httptest.NewServer(NewServer(route.NewService(g)).Handler())
	t.Cleanup(ts.Close)
	arc := g.Arcs(0)[0]
	from, to := "0", strconv.Itoa(int(arc.Head))

	var before, after struct {
		Generation uint64 `json:"generation"`
	}
	getJSON(t, ts.URL+"/v1/snapshot", &before)
	var env errorEnvelope
	body := `{"changes":[` +
		`{"from":"` + from + `","to":"` + to + `","factor":1e300},` +
		`{"from":"` + from + `","to":"` + to + `","factor":1e300},` +
		`{"from":"` + from + `","to":"` + to + `","factor":0}]}`
	resp := postJSON(t, ts.URL+"/v1/traffic/batch", body, &env)
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
		t.Fatalf("overflowing batch: status %d code %q, want 400 %s", resp.StatusCode, env.Error.Code, CodeBadRequest)
	}
	getJSON(t, ts.URL+"/v1/snapshot", &after)
	if after.Generation != before.Generation {
		t.Errorf("rejected batch moved the snapshot generation %d → %d", before.Generation, after.Generation)
	}
	var rr RouteResponse
	getJSON(t, ts.URL+"/v1/route?from="+from+"&to="+to+"&algo=dijkstra", &rr)
	if !rr.Found || rr.Cost > arc.Cost {
		t.Errorf("route over the edge after the rejected batch: found=%v cost %v, want ≤ %v", rr.Found, rr.Cost, arc.Cost)
	}
}

// TestTrafficBatchRejectsUnderflowingFactors: factors 1e-200 are each
// positive, but two of them underflow an edge cost to 0, as irreversible
// as factor 0. Within one batch or across two, the batch that would do it
// is refused as a whole — 400 bad_request, no new snapshot.
func TestTrafficBatchRejectsUnderflowingFactors(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{})
	ts := httptest.NewServer(NewServer(route.NewService(g)).Handler())
	t.Cleanup(ts.Close)
	arc := g.Arcs(0)[0]
	change := `{"from":"0","to":"` + strconv.Itoa(int(arc.Head)) + `","factor":1e-200}`
	generation := func() uint64 {
		var snap struct {
			Generation uint64 `json:"generation"`
		}
		getJSON(t, ts.URL+"/v1/snapshot", &snap)
		return snap.Generation
	}
	refused := func(body string) {
		t.Helper()
		before := generation()
		var env errorEnvelope
		resp := postJSON(t, ts.URL+"/v1/traffic/batch", body, &env)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
			t.Errorf("underflowing batch %s: status %d code %q, want 400 %s", body, resp.StatusCode, env.Error.Code, CodeBadRequest)
		}
		if after := generation(); after != before {
			t.Errorf("rejected batch moved the snapshot generation %d → %d", before, after)
		}
	}
	refused(`{"changes":[` + change + `,` + change + `]}`)
	if resp := postJSON(t, ts.URL+"/v1/traffic/batch", `{"changes":[`+change+`]}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("one factor 1e-200: status %d, want 200", resp.StatusCode)
	}
	refused(`{"changes":[` + change + `]}`)
}

// TestTrafficRejectsZeroFactor: a congestion factor of 0 would erase
// edge costs beyond recovery by any later factor, so both traffic
// endpoints answer 400 bad_request and publish nothing.
func TestTrafficRejectsZeroFactor(t *testing.T) {
	ts := newTestServer(t)
	generation := func() uint64 {
		var snap struct {
			Generation uint64 `json:"generation"`
		}
		getJSON(t, ts.URL+"/v1/snapshot", &snap)
		return snap.Generation
	}
	before := generation()
	for path, body := range map[string]string{
		"/v1/traffic":       `{"x":16,"y":16,"radius":1000,"factor":0}`,
		"/v1/traffic/batch": `{"changes":[{"from":"A","to":"B","factor":2},{"from":"0","to":"1","factor":0}]}`,
	} {
		var env errorEnvelope
		resp := postJSON(t, ts.URL+path, body, &env)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
			t.Errorf("%s factor 0: status %d code %q, want 400 %s", path, resp.StatusCode, env.Error.Code, CodeBadRequest)
		}
	}
	if after := generation(); after != before {
		t.Errorf("rejected factors moved the snapshot generation %d → %d", before, after)
	}
}

func TestReachableEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out struct {
		Count int                `json:"count"`
		Nodes map[string]float64 `json:"nodes"`
	}
	resp := getJSON(t, ts.URL+"/reachable?from=G&budget=3", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Count == 0 || out.Count != len(out.Nodes) {
		t.Errorf("reachable: %+v", out)
	}
	for _, c := range out.Nodes {
		if c > 3 {
			t.Errorf("cost %v above budget", c)
		}
	}
	if resp := getJSON(t, ts.URL+"/reachable?from=G&budget=oops", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad budget: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/reachable?from=ZZZ&budget=1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad origin: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/reachable?from=G&budget=-1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative budget: %d", resp.StatusCode)
	}
}

func TestDirectionsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out struct {
		Cost  float64 `json:"cost"`
		Steps []struct {
			Action   string  `json:"action"`
			Heading  string  `json:"heading"`
			Distance float64 `json:"distance"`
		} `json:"steps"`
	}
	resp := getJSON(t, ts.URL+"/directions?from=E&to=F", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Steps) < 2 {
		t.Fatalf("steps: %+v", out.Steps)
	}
	if out.Steps[0].Action != "depart" || out.Steps[len(out.Steps)-1].Action != "arrive" {
		t.Errorf("bookends: %+v", out.Steps)
	}
	if resp := getJSON(t, ts.URL+"/directions?from=ZZZ&to=F", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad origin: %d", resp.StatusCode)
	}
}

func TestAlternatesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out struct {
		Count  int `json:"count"`
		Routes []struct {
			Cost  float64 `json:"cost"`
			Nodes []int32 `json:"nodes"`
		} `json:"routes"`
	}
	resp := getJSON(t, ts.URL+"/alternates?from=G&to=D&k=3", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Count != 3 || len(out.Routes) != 3 {
		t.Fatalf("alternates: %+v", out)
	}
	for i := 1; i < len(out.Routes); i++ {
		if out.Routes[i].Cost < out.Routes[i-1].Cost {
			t.Errorf("alternates out of order: %v", out.Routes)
		}
	}
	if resp := getJSON(t, ts.URL+"/alternates?from=G&to=D&k=99", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("huge k: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/alternates?from=G&to=D&k=zero", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad k: %d", resp.StatusCode)
	}
}

func TestMapEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var m struct {
		Nodes     int              `json:"nodes"`
		Edges     int              `json:"edges"`
		Landmarks map[string]int32 `json:"landmarks"`
	}
	getJSON(t, ts.URL+"/map", &m)
	if m.Nodes != 1089 || m.Edges < 3000 {
		t.Errorf("map meta: %+v", m)
	}
	if len(m.Landmarks) != 7 {
		t.Errorf("landmarks: %v", m.Landmarks)
	}
}

func TestNoRouteReportsMinusOne(t *testing.T) {
	// Lake nodes are isolated; routing to one yields found=false, cost -1.
	g := mpls.MustGenerate(mpls.Config{})
	isolated := graph.Invalid
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if g.OutDegree(u) == 0 {
			isolated = u
			break
		}
	}
	if isolated == graph.Invalid {
		t.Skip("no isolated node on this map")
	}
	ts := httptest.NewServer(NewServer(route.NewService(g)).Handler())
	defer ts.Close()
	var rr RouteResponse
	getJSON(t, ts.URL+"/route?from=G&to="+strconv.Itoa(int(isolated)), &rr)
	if rr.Found || rr.Cost != -1 {
		t.Errorf("unreachable route: %+v", rr)
	}
}

// TestOversizedBodiesRejected sends each JSON endpoint a body one item
// past maxBodyBytes: the server stops reading at the limit and answers
// 413 too_large with the envelope, and the snapshot generation does not
// move (the /v1/traffic body would congest the whole map if accepted).
func TestOversizedBodiesRejected(t *testing.T) {
	items := func(prefix, item, suffix string) string {
		return prefix + strings.Repeat(item, maxBodyBytes/len(item)+1) + suffix
	}
	cases := []struct{ name, path, body string }{
		{"routes-batch", "/v1/routes/batch", items(`{"pairs":[`, `{"from":"A","to":"B"},`, `{"from":"A","to":"B"}]}`)},
		{"evaluate", "/v1/evaluate", items(`{"nodes":[`, `1,`, `1]}`)},
		{"traffic", "/v1/traffic", items(`{"x":16,"y":16,"radius":1000,"factor":2,"note":"`, `x`, `"}`)},
		{"traffic-batch", "/v1/traffic/batch", items(`{"changes":[`, `{"from":"A","to":"B","factor":2},`, `{"from":"A","to":"B","factor":2}]}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := newTestServer(t)
			var before, after struct {
				Generation uint64 `json:"generation"`
			}
			getJSON(t, ts.URL+"/v1/snapshot", &before)
			var env errorEnvelope
			resp := postJSON(t, ts.URL+tc.path, tc.body, &env)
			if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != CodeTooLarge || env.Error.RequestID == "" {
				t.Errorf("%d-byte body: status %d envelope %+v, want 413 %s with a requestId",
					len(tc.body), resp.StatusCode, env.Error, CodeTooLarge)
			}
			getJSON(t, ts.URL+"/v1/snapshot", &after)
			if after.Generation != before.Generation {
				t.Errorf("rejected body moved the snapshot generation %d → %d", before.Generation, after.Generation)
			}
		})
	}
}

// TestMaxCountTrafficBatchFitsBodyLimit keeps the byte limit above what
// the count cap admits: a batch of maxTrafficChanges changes, written
// verbosely, is read in full and applied.
func TestMaxCountTrafficBatchFitsBodyLimit(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{})
	ts := httptest.NewServer(NewServer(route.NewService(g)).Handler())
	t.Cleanup(ts.Close)
	change := `{"from": "0", "to": "` + strconv.Itoa(int(g.Arcs(0)[0].Head)) + `", "factor": 1.0000000000000000}`
	body := `{"changes": [` + strings.Repeat(change+", ", maxTrafficChanges-1) + change + `]}`
	var out struct {
		Changes int `json:"changes"`
	}
	if resp := postJSON(t, ts.URL+"/v1/traffic/batch", body, &out); resp.StatusCode != http.StatusOK || out.Changes != maxTrafficChanges {
		t.Fatalf("%d-byte batch of %d changes: status %d, applied %d", len(body), maxTrafficChanges, resp.StatusCode, out.Changes)
	}
}

// TestPathBodySizedOnce pins the wire form of a route's nodes: the
// encoder appends a 65-node route body to a warm buffer without
// allocating, and writes the bytes encoding/json writes for the same
// RouteResponse, including an empty path (no nodes field). Alternates
// still convert paths with wireNodes: one allocation, and null for an
// empty alternate, as the append loop it replaced.
func TestPathBodySizedOnce(t *testing.T) {
	nodes := make([]graph.NodeID, 65)
	for i := range nodes {
		nodes[i] = graph.NodeID(3 * i)
	}
	rt := core.Route{Found: true, Cost: 12.5, Path: graph.Path{Nodes: nodes}}
	e := jsonBody{b: make([]byte, 0, 1024)}
	if allocs := testing.AllocsPerRun(100, func() {
		e.b = e.b[:0]
		e.routeFields(rt, false, nil)
	}); allocs != 0 {
		t.Fatalf("route body of a 65-node path: %.1f allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = wireNodes(nodes) }); allocs != 1 {
		t.Fatalf("wireNodes on a 65-node path: %.1f allocs, want 1", allocs)
	}
	appendLoop := func(nodes []graph.NodeID) []int32 {
		var out []int32
		for _, u := range nodes {
			out = append(out, int32(u))
		}
		return out
	}
	type alt struct {
		Cost  float64 `json:"cost"`
		Nodes []int32 `json:"nodes"`
	}
	for _, path := range [][]graph.NodeID{nodes, {7}, {}, nil} {
		want, _ := json.Marshal(alt{Cost: 1, Nodes: appendLoop(path)})
		got, _ := json.Marshal(alt{Cost: 1, Nodes: wireNodes(path)})
		if string(got) != string(want) {
			t.Fatalf("%d-node path encodes as %s, want %s", len(path), got, want)
		}
		rt := core.Route{Found: true, Path: graph.Path{Nodes: path}}
		want, _ = json.Marshal(RouteResponse{Found: true, Nodes: appendLoop(path), Algorithm: rt.Algorithm.String()})
		e := jsonBody{}
		e.raw("{")
		e.routeFields(rt, false, nil)
		e.raw("}")
		if string(e.b) != string(want) {
			t.Fatalf("%d-node route encodes as %s, want %s", len(path), e.b, want)
		}
	}
}

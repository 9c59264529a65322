package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/mpls"
	"repro/internal/route"
	"repro/internal/tracing"
)

// newLifecycleServer builds a server over g with an explicit admission
// config, returning both the Server (for gate access) and the test
// listener.
func newLifecycleServer(t *testing.T, g *graph.Graph, cfg admission.Config, enableCH bool) (*Server, *httptest.Server) {
	t.Helper()
	svc := route.NewService(g)
	if enableCH {
		if err := svc.EnableCH(); err != nil {
			t.Fatalf("EnableCH: %v", err)
		}
	}
	api := NewServer(svc, WithAdmission(cfg))
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return api, ts
}

// errorEnvelope decodes the structured error body.
type errorEnvelope struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"requestId"`
	} `json:"error"`
}

func decodeError(t *testing.T, resp *http.Response) errorEnvelope {
	t.Helper()
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return env
}

// lifecycleStats reads the /v1/stats lifecycle block.
func lifecycleStats(t *testing.T, baseURL string) map[string]uint64 {
	t.Helper()
	var body struct {
		Lifecycle map[string]uint64 `json:"lifecycle"`
	}
	resp := getJSON(t, baseURL+"/v1/stats", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d", resp.StatusCode)
	}
	return body.Lifecycle
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

// saturate fills the gate's capacity and its wait queue so the next
// admission sheds, returning a drain func.
func saturate(t *testing.T, api *Server) (drain func()) {
	t.Helper()
	gate := api.Admission()
	rel, err := gate.Acquire(context.Background(), int64(gate.Stats().Capacity))
	if err != nil {
		t.Fatalf("saturating gate: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan struct{})
	for i := 0; i < gate.Stats().MaxQueue; i++ {
		go func() {
			defer func() { parked <- struct{}{} }()
			if rel, err := gate.Acquire(ctx, 1); err == nil {
				rel()
			}
		}()
	}
	waitUntil(t, func() bool { return gate.Stats().QueueDepth == gate.Stats().MaxQueue })
	return func() {
		cancel()
		for i := 0; i < gate.Stats().MaxQueue; i++ {
			<-parked
		}
		rel()
	}
}

// TestQueueFullSheds503 is the load-shedding contract: a saturated
// server (capacity and queue both full) rejects immediately with 503,
// a Retry-After hint, the overloaded error code, and a bumped shed
// counter.
func TestQueueFullSheds503(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{})
	api, ts := newLifecycleServer(t, g, admission.Config{MaxInFlight: 1, MaxQueue: 1}, false)
	drain := saturate(t, api)
	defer drain()

	resp, err := http.Get(ts.URL + "/v1/route?from=G&to=D")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After header")
	}
	env := decodeError(t, resp)
	if env.Error.Code != CodeOverloaded {
		t.Errorf("error code %q, want %q", env.Error.Code, CodeOverloaded)
	}
	if env.Error.RequestID == "" {
		t.Error("error envelope without requestId")
	}
	if shed := api.Admission().Stats().Shed; shed < 1 {
		t.Errorf("shed counter %d, want ≥ 1", shed)
	}
}

// TestDegradedServingFromCH: with -degrade on, a shed route request is
// answered from the CH index — 200, degraded:true — instead of a 503.
func TestDegradedServingFromCH(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{})
	api, ts := newLifecycleServer(t, g,
		admission.Config{MaxInFlight: 1, MaxQueue: 1, Degrade: true}, true)
	drain := saturate(t, api)
	defer drain()

	var rr RouteResponse
	resp := getJSON(t, ts.URL+"/v1/route?from=G&to=D", &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (degraded)", resp.StatusCode)
	}
	if !rr.Degraded || !rr.Found || rr.Cost <= 0 {
		t.Fatalf("degraded response: %+v", rr)
	}
	if rr.Algorithm != "ch" {
		t.Errorf("degraded algorithm %q, want ch (index-served)", rr.Algorithm)
	}
	if n := lifecycleStats(t, ts.URL)["degraded"]; n < 1 {
		t.Errorf("degraded counter %d, want ≥ 1", n)
	}
}

// TestDegradedServingFromCache: a warm cache entry also satisfies a shed
// request, even without a CH index.
func TestDegradedServingFromCache(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{})
	api, ts := newLifecycleServer(t, g,
		admission.Config{MaxInFlight: 1, MaxQueue: 1, Degrade: true}, false)

	// Warm the cache while the gate is open.
	var warm RouteResponse
	if resp := getJSON(t, ts.URL+"/v1/route?from=G&to=D&algo=dijkstra", &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request status %d", resp.StatusCode)
	}

	drain := saturate(t, api)
	defer drain()

	var rr RouteResponse
	resp := getJSON(t, ts.URL+"/v1/route?from=G&to=D&algo=dijkstra", &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (degraded from cache)", resp.StatusCode)
	}
	if !rr.Degraded || !rr.Found || rr.Cost != warm.Cost {
		t.Fatalf("degraded response: %+v (warm cost %v)", rr, warm.Cost)
	}

	// A pair that is neither cached nor CH-servable still sheds.
	resp2, err := http.Get(ts.URL + "/v1/route?from=A&to=D&algo=dijkstra")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("uncached pair status %d, want 503", resp2.StatusCode)
	}
	resp2.Body.Close()
}

// TestDegradedRouteRunsUnderRequestContext: a degraded CH answer runs
// under the request's context like any other CH read. Its trace shows the
// kernel span with the index's search and unpack phases under a root span
// marked degraded, and a request whose context is already dead gets the
// lifecycle envelope a normal CH read gets — 499 canceled, 504 past its
// deadline — instead of an answer computed for nobody.
func TestDegradedRouteRunsUnderRequestContext(t *testing.T) {
	svc := route.NewService(mpls.MustGenerate(mpls.Config{}))
	if err := svc.EnableCH(); err != nil {
		t.Fatal(err)
	}
	api := NewServer(svc,
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
		WithAdmission(admission.Config{MaxInFlight: 1, MaxQueue: 1, Degrade: true}),
		WithTracing(tracing.Config{SampleRate: 1}))
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	drain := saturate(t, api)
	defer drain()

	resp, err := http.Get(ts.URL + "/v1/route?from=G&to=D&algo=ch")
	if err != nil {
		t.Fatal(err)
	}
	var rr RouteResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rr.Degraded || !rr.Found {
		t.Fatalf("status %d, response %+v; want a degraded 200", resp.StatusCode, rr)
	}
	m := traceparentRe.FindStringSubmatch(resp.Header.Get("traceparent"))
	if m == nil {
		t.Fatalf("traceparent %q", resp.Header.Get("traceparent"))
	}
	var snap tracing.Snapshot
	getJSON(t, ts.URL+"/v1/debug/traces/"+m[1], &snap)
	if got := snap.Root.Attrs["degraded"]; got != true {
		t.Errorf("root span degraded = %v, want true", got)
	}
	names := map[string]tracing.SpanNode{}
	spanNames(snap.Root, names)
	for _, want := range []string{"kernel", "ch.search", "ch.unpack"} {
		if _, ok := names[want]; !ok {
			t.Errorf("degraded trace missing %q; have %v", want, keysOf(names))
		}
	}
	if got := names["kernel"].Attrs["algo"]; got != "ch" {
		t.Errorf("kernel algo = %v, want ch", got)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, c := range []struct {
		ctx    context.Context
		status int
		code   string
	}{
		{canceled, StatusClientClosedRequest, CodeCanceled},
		{expired, http.StatusGatewayTimeout, CodeDeadlineExceeded},
	} {
		// C→D is cached nowhere, so only the CH index could answer it.
		r := httptest.NewRequest(http.MethodGet, "/v1/route?from=C&to=D&algo=ch", nil).WithContext(c.ctx)
		w := httptest.NewRecorder()
		api.Handler().ServeHTTP(w, r)
		var env errorEnvelope
		json.NewDecoder(w.Body).Decode(&env)
		if w.Code != c.status || env.Error.Code != c.code {
			t.Errorf("dead context: status %d code %q, want %d %q", w.Code, env.Error.Code, c.status, c.code)
		}
	}
}

// TestQueuedDeadlineReturns504: a request whose ?budget_ms= expires
// while parked in the admission queue gets the deadline_exceeded
// envelope, deterministically (the gate is saturated but the queue has
// room, so the request parks until its 1ms budget runs out).
func TestQueuedDeadlineReturns504(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{})
	api, ts := newLifecycleServer(t, g, admission.Config{MaxInFlight: 1, MaxQueue: 8}, false)
	gate := api.Admission()
	rel, err := gate.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	resp, err := http.Get(ts.URL + "/v1/route?from=G&to=D&budget_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	env := decodeError(t, resp)
	if env.Error.Code != CodeDeadlineExceeded {
		t.Errorf("error code %q, want %q", env.Error.Code, CodeDeadlineExceeded)
	}
	if n := lifecycleStats(t, ts.URL)["deadlineExceeded"]; n < 1 {
		t.Errorf("deadlineExceeded counter %d, want ≥ 1", n)
	}
}

// bigGrid is the 250k-node grid shared by the slow-search lifecycle
// tests. The size matters beyond realism: on a single-core machine the
// deadline timer's callback cannot run until the scheduler preempts the
// searching goroutine (~10ms), so only a search comfortably longer than
// that can observe a mid-flight expiry at all.
var bigGrid = sync.OnceValue(func() *graph.Graph {
	return gridgen.MustGenerate(gridgen.Config{K: 500, Model: gridgen.Variance, Seed: 7})
})

// TestMidSearchBudgetReturns504: on a search far longer than the
// scheduler's preemption quantum (Yen's alternates on the big grid run a
// backward Dijkstra over all 250k nodes, then thousands of spur searches
// — seconds of work), the in-flight kernels observe the expired 1ms
// budget and the handler maps it to 504.
// A single Iterative pass is not long enough here: at ~25ms it races the
// single-core timer delivery (~10-20ms) and can win, finish, and poison
// the remaining attempts through the route cache.
func TestMidSearchBudgetReturns504(t *testing.T) {
	g := bigGrid()
	_, ts := newLifecycleServer(t, g, admission.Config{}, false)

	last := ""
	for attempt := 0; attempt < 5; attempt++ {
		resp, err := http.Get(ts.URL + "/v1/alternates?from=0&to=249999&k=8&budget_ms=1")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusGatewayTimeout {
			env := decodeError(t, resp)
			if env.Error.Code != CodeDeadlineExceeded {
				t.Errorf("error code %q, want %q", env.Error.Code, CodeDeadlineExceeded)
			}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		last = resp.Status + " " + string(b)
	}
	t.Fatalf("no 504 in 5 attempts; last response: %s", last)
}

// TestAlternatesRequestBudgetReturns504: the best-first class's expansion
// budget bounds a whole alternates request, not each of its searches. On
// a chain of 2,000 unit arcs with a 5,000-node zero-cost side chain that
// every chain node enters and that leaves only to the chain's second node,
// each spur search pops at most 5,001 nodes once that node is on its root,
// and no search can pop more than the graph's 7,001 nodes; the request as
// a whole needs about 10M pops. The budget stops it, and the handler
// answers with the 504 deadline_exceeded envelope.
func TestAlternatesRequestBudgetReturns504(t *testing.T) {
	const chain, side = 2000, 5000
	if budget := admission.ClassFor(core.Dijkstra).MaxExpansions; chain*side <= budget || chain+1+side >= budget {
		t.Fatalf("fixture does not straddle the best-first budget %d", budget)
	}
	b := graph.NewBuilder(chain+1+side, 2*(chain+side))
	for i := 0; i < chain+1+side; i++ {
		b.AddNode(float64(i), 0)
	}
	first := graph.NodeID(chain + 1)
	for i := 0; i < chain; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
		b.AddEdge(graph.NodeID(i), first, 1)
	}
	for u := first; u < first+side; u++ {
		if u+1 < first+side {
			b.AddEdge(u, u+1, 0)
		}
		b.AddEdge(u, 1, 1)
	}
	_, ts := newLifecycleServer(t, b.MustBuild(), admission.Config{}, false)
	resp, err := http.Get(ts.URL + "/v1/alternates?from=0&to=" + strconv.Itoa(chain) + "&k=2&budget_ms=60000")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %s (%s), want 504", resp.Status, body)
	}
	env := decodeError(t, resp)
	if env.Error.Code != CodeDeadlineExceeded || !strings.Contains(env.Error.Message, "budget") {
		t.Errorf("error %q %q, want %q naming the expansion budget", env.Error.Code, env.Error.Message, CodeDeadlineExceeded)
	}
}

// TestCanceledClientRecords499: a client that disconnects mid-search is
// recorded under the canceled lifecycle outcome (the 499 itself is never
// seen by anyone — the connection is gone).
func TestCanceledClientRecords499(t *testing.T) {
	// Yen's alternates on the 250k-node grid run a backward Dijkstra over
	// the whole grid and then thousands of spur searches — seconds of
	// search — so the disconnect's multi-hop
	// delivery (client timer, TCP close, the server's background reader,
	// context propagation) lands mid-flight even on one core.
	g := bigGrid()
	_, ts := newLifecycleServer(t, g, admission.Config{}, false)

	for attempt := 0; attempt < 5; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/v1/alternates?from=0&to=249999&k=8", nil)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close() // finished before the disconnect; retry
		}
		cancel()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if lifecycleStats(t, ts.URL)["canceled"] >= 1 {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Fatal("canceled lifecycle counter never incremented")
}

// TestBudgetMsValidation: garbage budget_ms is a 400 with the
// bad_request code, before any search work.
func TestBudgetMsValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, bad := range []string{"abc", "0", "-5"} {
		resp, err := http.Get(ts.URL + "/v1/route?from=G&to=D&budget_ms=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("budget_ms=%s: status %d, want 400", bad, resp.StatusCode)
		}
		env := decodeError(t, resp)
		if env.Error.Code != CodeBadRequest {
			t.Errorf("budget_ms=%s: code %q, want %q", bad, env.Error.Code, CodeBadRequest)
		}
	}
}

// TestV1Enveloped405: wrong-method requests on the versioned surface get
// the structured envelope with an Allow header, not the mux's plain 405.
func TestV1Enveloped405(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/route", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
		t.Errorf("Allow header %q, want GET", allow)
	}
	env := decodeError(t, resp)
	if env.Error.Code != CodeMethodNotAllowed {
		t.Errorf("error code %q, want %q", env.Error.Code, CodeMethodNotAllowed)
	}
}

// TestV1ErrorCodes spot-checks the code vocabulary on the versioned
// surface.
func TestV1ErrorCodes(t *testing.T) {
	g := mpls.MustGenerate(mpls.Config{})
	_, ts := newLifecycleServer(t, g, admission.Config{}, false)
	cases := []struct {
		url    string
		status int
		code   string
	}{
		{"/v1/route?from=nowhere&to=D", http.StatusBadRequest, CodeBadNode},
		{"/v1/route?from=G&to=D&algo=quantum", http.StatusBadRequest, CodeBadAlgo},
		{"/v1/route?from=G&to=D&weight=-1", http.StatusBadRequest, CodeBadRequest},
	}
	// no_route needs a truly unreachable pair: a lake node with no roads.
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if g.OutDegree(u) == 0 {
			cases = append(cases, struct {
				url    string
				status int
				code   string
			}{"/v1/directions?from=G&to=" + strconv.Itoa(int(u)), http.StatusNotFound, CodeNoRoute})
			break
		}
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Errorf("%s: status %d, want %d (%s)", tc.url, resp.StatusCode, tc.status, b)
			continue
		}
		env := decodeError(t, resp)
		if env.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.url, env.Error.Code, tc.code)
		}
	}
}

// TestLegacyPathsDeprecatedButServing: the unversioned aliases still
// serve — identical payloads — while carrying the Deprecation header,
// the successor Link, and bumping the per-path legacy counter.
func TestLegacyPathsDeprecatedButServing(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/route?from=G&to=D")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy /route status %d", resp.StatusCode)
	}
	if d := resp.Header.Get("Deprecation"); d != "true" {
		t.Errorf("Deprecation header %q, want true", d)
	}
	if l := resp.Header.Get("Link"); !strings.Contains(l, "/v1/route") || !strings.Contains(l, "successor-version") {
		t.Errorf("Link header %q, want successor-version pointing at /v1/route", l)
	}

	// The versioned path carries no deprecation marker.
	resp2, err := http.Get(ts.URL + "/v1/route?from=G&to=D")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if d := resp2.Header.Get("Deprecation"); d != "" {
		t.Errorf("/v1/route unexpectedly deprecated: %q", d)
	}

	metrics, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	text, _ := io.ReadAll(metrics.Body)
	if !strings.Contains(string(text), `atis_http_legacy_path_total{path="/route"}`) {
		t.Error("metrics missing atis_http_legacy_path_total for /route")
	}
}

// TestBatchUnfoundPopulatesAlgorithmAndIterations: an unreachable pair's
// batch item must still report which algorithm ran and how many
// iterations it spent — the fields the legacy handler used to zero out.
func TestBatchUnfoundPopulatesAlgorithmAndIterations(t *testing.T) {
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
	_, ts := newLifecycleServer(t, g, admission.Config{}, false)

	var out struct {
		Routes []struct {
			RouteResponse
			Error string `json:"error"`
		} `json:"routes"`
	}
	body := `{"pairs":[{"from":"G","to":"` + strconv.Itoa(int(isolated)) + `"}],"algo":"dijkstra"}`
	resp := postJSON(t, ts.URL+"/v1/routes/batch", body, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Routes) != 1 {
		t.Fatalf("%d routes, want 1", len(out.Routes))
	}
	item := out.Routes[0]
	if item.Found || item.Cost != -1 {
		t.Fatalf("unreachable pair: %+v", item)
	}
	if item.Algorithm != "dijkstra" {
		t.Errorf("algorithm %q, want dijkstra", item.Algorithm)
	}
	if item.Iterations == 0 {
		t.Error("iterations = 0; the search's work went unreported")
	}
}

package httpapi

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/mpls"
	"repro/internal/route"
	"repro/internal/tracing"
)

// newTracedServer builds a CH-enabled service behind a server with the
// given tracing config, returning the test server and the Server for
// tracer access.
func newTracedServer(t *testing.T, cfg tracing.Config) (*httptest.Server, *Server) {
	t.Helper()
	svc := route.NewService(mpls.MustGenerate(mpls.Config{}))
	if err := svc.EnableCH(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc,
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
		WithTracing(cfg))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// TestAlternatesKernelSpan: an alternates request shows its Yen search as
// a "kernel" span carrying algo=yen, the request's heap pops and its spur
// searches.
func TestAlternatesKernelSpan(t *testing.T) {
	ts, _ := newTracedServer(t, tracing.Config{SampleRate: 1})
	resp, err := http.Get(ts.URL + "/v1/alternates?from=A&to=B&k=3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	m := traceparentRe.FindStringSubmatch(resp.Header.Get("traceparent"))
	if resp.StatusCode != http.StatusOK || m == nil {
		t.Fatalf("GET /v1/alternates = %d, traceparent %q", resp.StatusCode, resp.Header.Get("traceparent"))
	}
	var snap tracing.Snapshot
	getJSON(t, ts.URL+"/v1/debug/traces/"+m[1], &snap)
	names := map[string]tracing.SpanNode{}
	spanNames(snap.Root, names)
	k, ok := names["kernel"]
	if !ok {
		t.Fatalf("span tree missing kernel; have %v", keysOf(names))
	}
	if got := k.Attrs["algo"]; got != "yen" {
		t.Errorf("kernel algo = %v, want yen", got)
	}
	for _, attr := range []string{"pops", "spurs"} {
		if v, ok := k.Attrs[attr].(float64); !ok || v <= 0 {
			t.Errorf("kernel %s = %v, want a positive count", attr, k.Attrs[attr])
		}
	}
}

var traceparentRe = regexp.MustCompile(`^00-([0-9a-f]{32})-([0-9a-f]{16})-(0[01])$`)

// spanNames flattens a snapshot tree into its set of span names.
func spanNames(n tracing.SpanNode, into map[string]tracing.SpanNode) {
	into[n.Name] = n
	for _, c := range n.Children {
		spanNames(c, into)
	}
}

// TestTraceEndToEnd is the acceptance path: with tracing on, one CH
// route request yields a retrievable span tree covering admission,
// cache, kernel, and unpack phases.
func TestTraceEndToEnd(t *testing.T) {
	ts, _ := newTracedServer(t, tracing.Config{SampleRate: 1})

	resp, err := http.Get(ts.URL + "/v1/route?from=A&to=B&algo=ch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/route = %d", resp.StatusCode)
	}
	tp := resp.Header.Get("traceparent")
	m := traceparentRe.FindStringSubmatch(tp)
	if m == nil {
		t.Fatalf("response traceparent %q is not W3C-shaped", tp)
	}
	traceID := m[1]

	var snap tracing.Snapshot
	dresp := getJSON(t, ts.URL+"/v1/debug/traces/"+traceID, &snap)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces/%s = %d", traceID, dresp.StatusCode)
	}
	if snap.TraceID != traceID {
		t.Fatalf("snapshot traceId = %q, want %q", snap.TraceID, traceID)
	}
	if snap.Root.Name != "/v1/route" {
		t.Errorf("root span name = %q, want the route pattern", snap.Root.Name)
	}

	names := map[string]tracing.SpanNode{}
	spanNames(snap.Root, names)
	for _, want := range []string{"admission", "route.cache", "kernel", "ch.search", "ch.unpack"} {
		if _, ok := names[want]; !ok {
			t.Errorf("span tree missing %q phase; have %v", want, keysOf(names))
		}
	}
	if adm, ok := names["admission"]; ok {
		if got := adm.Attrs["outcome"]; got != "admitted" {
			t.Errorf("admission outcome = %v, want admitted", got)
		}
	}
	if k, ok := names["kernel"]; ok {
		if got := k.Attrs["algo"]; got != "ch" {
			t.Errorf("kernel algo = %v, want ch", got)
		}
	}

	// The index lists the capture too.
	var list struct {
		Enabled bool              `json:"enabled"`
		Recent  []tracing.Summary `json:"recent"`
		Slowest []tracing.Summary `json:"slowest"`
	}
	getJSON(t, ts.URL+"/v1/debug/traces", &list)
	if !list.Enabled {
		t.Error("debug index reports tracing disabled")
	}
	found := false
	for _, s := range list.Recent {
		if s.TraceID == traceID {
			found = true
			if s.Spans < 5 {
				t.Errorf("summary spans = %d, want >=5", s.Spans)
			}
		}
	}
	if !found {
		t.Errorf("trace %s missing from recent list", traceID)
	}
}

func keysOf(m map[string]tracing.SpanNode) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceparentIngestEcho asserts an upstream gateway's traceparent is
// honoured: the response carries the same trace id with our fresh root
// span id, and the capture files under the upstream id.
func TestTraceparentIngestEcho(t *testing.T) {
	ts, _ := newTracedServer(t, tracing.Config{SampleRate: 1})
	const upID = "4bf92f3577b34da6a3ce929d0e0e4736"
	const upSpan = "00f067aa0ba902b7"

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/map", nil)
	req.Header.Set("traceparent", "00-"+upID+"-"+upSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	m := traceparentRe.FindStringSubmatch(resp.Header.Get("traceparent"))
	if m == nil {
		t.Fatalf("echoed traceparent %q malformed", resp.Header.Get("traceparent"))
	}
	if m[1] != upID {
		t.Errorf("echoed trace id = %s, want upstream %s", m[1], upID)
	}
	if m[2] == upSpan {
		t.Error("echoed span id is the upstream parent's; want our root span id")
	}

	var snap tracing.Snapshot
	if dresp := getJSON(t, ts.URL+"/v1/debug/traces/"+upID, &snap); dresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces/%s = %d", upID, dresp.StatusCode)
	}
	if snap.Upstream != upSpan {
		t.Errorf("snapshot upstream = %q, want %q", snap.Upstream, upSpan)
	}
}

// TestSlowRequestAlwaysCaptured is the tail-sampling guarantee: with a
// zero sample rate, a request over the slow threshold is captured anyway.
func TestSlowRequestAlwaysCaptured(t *testing.T) {
	ts, _ := newTracedServer(t, tracing.Config{SampleRate: 0, SlowThreshold: time.Nanosecond})

	resp, err := http.Get(ts.URL + "/v1/route?from=A&to=B")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	m := traceparentRe.FindStringSubmatch(resp.Header.Get("traceparent"))
	if m == nil {
		t.Fatalf("traceparent %q malformed", resp.Header.Get("traceparent"))
	}

	var snap tracing.Snapshot
	if dresp := getJSON(t, ts.URL+"/v1/debug/traces/"+m[1], &snap); dresp.StatusCode != http.StatusOK {
		t.Fatalf("slow trace not captured: GET /v1/debug/traces/%s = %d", m[1], dresp.StatusCode)
	}
	if !snap.Slow {
		t.Error("captured trace not marked slow")
	}
}

// TestUnsampledTraceNotCaptured is the flip side: enabled tracing with a
// zero sample rate and an unreachable slow threshold records nothing,
// and the detail endpoint 404s with the structured envelope.
func TestUnsampledTraceNotCaptured(t *testing.T) {
	ts, _ := newTracedServer(t, tracing.Config{SampleRate: 0, SlowThreshold: time.Hour})

	resp, err := http.Get(ts.URL + "/v1/map")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	m := traceparentRe.FindStringSubmatch(resp.Header.Get("traceparent"))
	if m == nil {
		t.Fatalf("traceparent %q malformed", resp.Header.Get("traceparent"))
	}

	var envelope map[string]ErrorBody
	dresp := getJSON(t, ts.URL+"/v1/debug/traces/"+m[1], &envelope)
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET on unsampled trace = %d, want 404", dresp.StatusCode)
	}
	if envelope["error"].Code != CodeNotFound {
		t.Errorf("error code = %q, want %q", envelope["error"].Code, CodeNotFound)
	}
}

// TestDebugEndpointsWithTracingDisabled asserts the debug surface stays
// up (and honest) when no tracer is configured.
func TestDebugEndpointsWithTracingDisabled(t *testing.T) {
	ts, _ := newInstrumentedServer(t)

	var list struct {
		Enabled bool `json:"enabled"`
	}
	if resp := getJSON(t, ts.URL+"/v1/debug/traces", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces = %d", resp.StatusCode)
	}
	if list.Enabled {
		t.Error("debug index reports tracing enabled on an untraced server")
	}
	resp, err := http.Get(ts.URL + "/v1/debug/traces/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET trace detail with tracing off = %d, want 404", resp.StatusCode)
	}
}

// TestExemplarOnCapturedTrace asserts the OpenMetrics exposition links a
// captured trace from the latency histogram.
func TestExemplarOnCapturedTrace(t *testing.T) {
	ts, _ := newTracedServer(t, tracing.Config{SampleRate: 1})

	resp, err := http.Get(ts.URL + "/v1/route?from=A&to=B")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tp := traceparentRe.FindStringSubmatch(resp.Header.Get("traceparent"))
	if tp == nil {
		t.Fatal("no traceparent on traced request")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	out := string(body)
	if !strings.Contains(mresp.Header.Get("Content-Type"), "application/openmetrics-text") {
		t.Fatalf("Content-Type = %q, want OpenMetrics", mresp.Header.Get("Content-Type"))
	}
	if !strings.Contains(out, `# {trace_id="`+tp[1]+`"}`) {
		t.Errorf("OpenMetrics exposition has no exemplar for trace %s", tp[1])
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Error("OpenMetrics exposition missing # EOF terminator")
	}
}

// TestBatchItemsCarryRequestID asserts every batch item echoes the
// request-scoped id, resolvable errors included.
func TestBatchItemsCarryRequestID(t *testing.T) {
	ts, _ := newInstrumentedServer(t)
	var out struct {
		Routes []struct {
			RequestID string `json:"requestId"`
			Error     string `json:"error"`
		} `json:"routes"`
	}
	resp := postJSON(t, ts.URL+"/v1/routes/batch",
		`{"pairs":[{"from":"A","to":"B"},{"from":"nope","to":"B"}]}`, &out)
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("no X-Request-ID on batch response")
	}
	if len(out.Routes) != 2 {
		t.Fatalf("got %d items, want 2", len(out.Routes))
	}
	for i, it := range out.Routes {
		if it.RequestID != reqID {
			t.Errorf("item %d requestId = %q, want %q", i, it.RequestID, reqID)
		}
	}
	if out.Routes[1].Error == "" {
		t.Error("unresolvable pair lost its per-item error")
	}
}

// TestBatchSpanAttrs asserts a traced batch records its size and error
// count on the root span.
func TestBatchSpanAttrs(t *testing.T) {
	ts, _ := newTracedServer(t, tracing.Config{SampleRate: 1})
	resp := postJSON(t, ts.URL+"/v1/routes/batch",
		`{"pairs":[{"from":"A","to":"B"},{"from":"nope","to":"B"}]}`, nil)
	m := traceparentRe.FindStringSubmatch(resp.Header.Get("traceparent"))
	if m == nil {
		t.Fatal("no traceparent on batch response")
	}
	var snap tracing.Snapshot
	if dresp := getJSON(t, ts.URL+"/v1/debug/traces/"+m[1], &snap); dresp.StatusCode != http.StatusOK {
		t.Fatalf("batch trace not captured: %d", dresp.StatusCode)
	}
	// JSON numbers decode as float64.
	if got := snap.Root.Attrs["batch.pairs"]; got != float64(2) {
		t.Errorf("batch.pairs = %v, want 2", got)
	}
	if got := snap.Root.Attrs["batch.errors"]; got != float64(1) {
		t.Errorf("batch.errors = %v, want 1", got)
	}
}

// TestDisabledTracingZeroSpanAllocs is the middleware half of the
// zero-overhead contract: with no tracer configured, the exact sequence
// of tracing calls the middleware and kernels make per request performs
// zero allocations.
func TestDisabledTracingZeroSpanAllocs(t *testing.T) {
	svc := route.NewService(mpls.MustGenerate(mpls.Config{}))
	srv := NewServer(svc, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	if srv.tracer != nil {
		t.Fatal("server without WithTracing has a tracer")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		// The middleware's per-request sequence…
		rctx, trace := srv.tracer.StartRequest(ctx, "/v1/route", "")
		// …the kernels' span work below it…
		sctx, sp := tracing.Start(rctx, "kernel")
		_, child := tracing.Start(sctx, "ch.search")
		child.SetInt("settled", 42)
		child.End()
		sp.SetStr("algo", "ch")
		sp.SetBool("found", true)
		sp.End()
		// …and the middleware's finish sequence.
		root := trace.Root()
		root.SetInt("status", 200)
		srv.tracer.Finish(trace)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per request, want 0", allocs)
	}
}

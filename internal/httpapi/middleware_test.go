package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpls"
	"repro/internal/route"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// newInstrumentedServer returns a test server plus the route service behind
// it, so tests can assert against the shared registry.
func newInstrumentedServer(t *testing.T) (*httptest.Server, *route.Service) {
	t.Helper()
	svc := route.NewService(mpls.MustGenerate(mpls.Config{}))
	srv := NewServer(svc, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, svc
}

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	ts, _ := newInstrumentedServer(t)
	resp, err := http.Get(ts.URL + "/map")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("generated X-Request-ID = %q, want 16 hex chars", id)
	}
}

func TestRequestIDHonoredWhenSupplied(t *testing.T) {
	ts, _ := newInstrumentedServer(t)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/map", nil)
	req.Header.Set("X-Request-ID", "trace-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-abc-123" {
		t.Fatalf("X-Request-ID = %q, want the caller's trace-abc-123", got)
	}
}

// TestRequestIDRejectedWhenUnsafe asserts oversized or unsafe-charset
// client ids are replaced with a fresh one instead of being echoed into the
// response header and every log line.
func TestRequestIDRejectedWhenUnsafe(t *testing.T) {
	ts, _ := newInstrumentedServer(t)
	fresh := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for name, id := range map[string]string{
		"too long":     strings.Repeat("a", maxRequestIDLen+1),
		"spaces":       "abc def",
		"tab":          "abc\tdef",
		"header-ish":   "abc,evil=1",
		"curly braces": "{injected}",
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/map", nil)
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Request-ID")
		if got == id || !fresh.MatchString(got) {
			t.Errorf("%s: X-Request-ID = %q, want a fresh generated id", name, got)
		}
	}
}

// TestStatusWriterPassthroughs asserts the instrumented wrapper still
// exposes the optional ResponseWriter capabilities of the writer beneath it.
func TestStatusWriterPassthroughs(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	var _ http.Flusher = sw
	var _ http.Hijacker = sw
	var _ io.ReaderFrom = sw
	sw.Flush() // httptest.ResponseRecorder implements http.Flusher
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
	if n, err := sw.ReadFrom(strings.NewReader("hello")); err != nil || n != 5 {
		t.Errorf("ReadFrom = (%d, %v), want (5, nil)", n, err)
	}
	if sw.bytes != 5 || sw.status != http.StatusOK {
		t.Errorf("ReadFrom accounting: bytes=%d status=%d", sw.bytes, sw.status)
	}
	if _, _, err := sw.Hijack(); err == nil {
		t.Error("Hijack on a non-hijackable writer should error, not panic")
	}
}

// TestStatusCodeCounters drives requests with known outcomes and asserts
// the middleware accounted each under the right (path, method, code) series.
func TestStatusCodeCounters(t *testing.T) {
	ts, svc := newInstrumentedServer(t)

	get := func(path string, wantStatus int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantStatus)
		}
	}
	get("/route?from=A&to=B", http.StatusOK)
	get("/route?from=A&to=B", http.StatusOK)
	get("/route?from=nope&to=B", http.StatusBadRequest)
	get("/traffic", http.StatusMethodNotAllowed) // GET on a POST endpoint

	reg := svc.Registry()
	check := func(path, method string, code, want int) {
		t.Helper()
		got := reg.Counter("atis_http_requests_total", "",
			telemetry.L("path", path), telemetry.L("method", method),
			telemetry.L("code", fmt.Sprint(code))).Value()
		if got != uint64(want) {
			t.Errorf("requests{%s,%s,%d} = %d, want %d", path, method, code, got, want)
		}
	}
	check("/route", "GET", 200, 2)
	check("/route", "GET", 400, 1)
	check("/traffic", "GET", 405, 1)
}

// TestLatencyHistogramPerPath asserts each served path accrues histogram
// observations under its own label.
func TestLatencyHistogramPerPath(t *testing.T) {
	ts, svc := newInstrumentedServer(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	h := svc.Registry().Histogram("atis_http_request_seconds", "", nil, telemetry.L("path", "/stats"))
	if got := h.Count(); got != 3 {
		t.Fatalf("latency histogram count for /stats = %d, want 3", got)
	}
	if h.Sum() < 0 {
		t.Fatalf("latency sum negative: %v", h.Sum())
	}
}

// TestMetricsEndpoint asserts GET /metrics serves Prometheus text covering
// the whole stack: HTTP middleware, route cache, and — with the recorder
// enabled — the search kernels.
func TestMetricsEndpoint(t *testing.T) {
	ts, svc := newInstrumentedServer(t)
	search.EnableTelemetry(svc.Registry())
	defer search.SetRecorder(nil)

	// One cold route (miss + one search run), one warm (hit, no search).
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/route?from=A&to=B&algo=dijkstra")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`atis_http_requests_total{code="200",method="GET",path="/route"} 2`,
		`atis_http_request_seconds_count{path="/route"} 2`,
		"atis_http_in_flight 1", // the /metrics scrape itself
		`atis_route_cache_requests_total{result="miss"} 1`,
		`atis_route_cache_requests_total{result="hit"} 1`,
		`atis_search_runs_total{algo="dijkstra"} 1`,
		`atis_search_expansions_total{algo="dijkstra"}`,
		`atis_search_heap_pushes_total{algo="dijkstra"}`,
		`atis_route_compute_seconds_count{algo="dijkstra"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full export:\n%s", out)
	}
}

// TestStatsMatchesMetrics is the satellite guarantee: the legacy /stats JSON
// and /metrics read the same instruments and can never disagree.
func TestStatsMatchesMetrics(t *testing.T) {
	ts, _ := newInstrumentedServer(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/route?from=A&to=C")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var stats struct {
		CacheHits   uint64 `json:"cacheHits"`
		CacheMisses uint64 `json:"cacheMisses"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.CacheHits != 2 || stats.CacheMisses != 1 {
		t.Fatalf("/stats = %+v, want 2 hits / 1 miss", stats)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf(`atis_route_cache_requests_total{result="hit"} %d`, stats.CacheHits),
		fmt.Sprintf(`atis_route_cache_requests_total{result="miss"} %d`, stats.CacheMisses),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q — /stats and /metrics disagree", want)
		}
	}
}

// TestCounterConsistencyUnderLoad is the -race stress gate: parallel route
// queries race with traffic mutations and scrapes, then the summed request
// counters must equal the requests issued.
func TestCounterConsistencyUnderLoad(t *testing.T) {
	ts, svc := newInstrumentedServer(t)
	search.EnableTelemetry(svc.Registry())
	defer search.SetRecorder(nil)

	const readers, perReader, writers, perWriter = 8, 25, 2, 10
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perReader; j++ {
				algo := []string{"dijkstra", "astar-euclidean", "bidirectional"}[j%3]
				resp, err := http.Get(fmt.Sprintf("%s/route?from=%d&to=%d&algo=%s", ts.URL, i, 40+j%20, algo))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				body := `{"x":16,"y":16,"radius":30,"factor":1.5}`
				resp, err := http.Post(ts.URL+"/traffic", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	// Concurrent scrapes must not disturb the counters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 5; j++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()

	reg := svc.Registry()
	routeTotal := uint64(0)
	for _, code := range []string{"200", "400", "404"} {
		routeTotal += reg.Counter("atis_http_requests_total",
			"", telemetry.L("path", "/route"), telemetry.L("method", "GET"),
			telemetry.L("code", code)).Value()
	}
	if want := uint64(readers * perReader); routeTotal != want {
		t.Errorf("summed /route request counters = %d, want %d", routeTotal, want)
	}
	if got := reg.Counter("atis_http_requests_total", "",
		telemetry.L("path", "/traffic"), telemetry.L("method", "POST"),
		telemetry.L("code", "200")).Value(); got != writers*perWriter {
		t.Errorf("/traffic POST 200 = %d, want %d", got, writers*perWriter)
	}
	if got := reg.Counter("atis_traffic_updates_total", "").Value(); got != writers*perWriter {
		t.Errorf("atis_traffic_updates_total = %d, want %d", got, writers*perWriter)
	}
	hits, misses, _ := svc.CacheStats()
	if hits+misses != uint64(readers*perReader) {
		t.Errorf("cache hits+misses = %d, want %d (every /route is exactly one lookup)",
			hits+misses, readers*perReader)
	}
	// In-flight gauge must settle back to zero once the load drains.
	if got := reg.Gauge("atis_http_in_flight", "").Value(); got != 0 {
		t.Errorf("atis_http_in_flight = %d after drain, want 0", got)
	}
}

// TestInstrumentRecoversPanics wraps panicking handlers in instrument: a
// panic before any response is written becomes a 500 internal envelope
// carrying the request id and is counted under code 500; a panic after
// the response started, and http.ErrAbortHandler itself, drop the
// connection by re-panicking http.ErrAbortHandler to net/http.
func TestInstrumentRecoversPanics(t *testing.T) {
	svc := route.NewService(mpls.MustGenerate(mpls.Config{}))
	srv := NewServer(svc, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	count := func(path string) uint64 {
		return svc.Registry().Counter("atis_http_requests_total", "",
			telemetry.L("path", path), telemetry.L("method", "GET"),
			telemetry.L("code", "500")).Value()
	}
	serve := func(path string, h http.HandlerFunc) (rec *httptest.ResponseRecorder, repanic any) {
		defer func() { repanic = recover() }()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("X-Request-ID", "panic-trace")
		rec = httptest.NewRecorder()
		srv.instrument(path, h).ServeHTTP(rec, req)
		return rec, nil
	}

	rec, repanic := serve("/boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	if repanic != nil {
		t.Fatalf("panic escaped instrument: %v", repanic)
	}
	var env errorEnvelope
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if rec.Code != http.StatusInternalServerError || env.Error.Code != CodeInternal || env.Error.RequestID != "panic-trace" {
		t.Errorf("recovered panic: status %d envelope %+v, want 500 %s with requestId panic-trace", rec.Code, env.Error, CodeInternal)
	}
	if got := count("/boom"); got != 1 {
		t.Errorf("requests{/boom,GET,500} = %d, want 1", got)
	}

	_, repanic = serve("/late", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "partial")
		panic("late")
	})
	if repanic != http.ErrAbortHandler {
		t.Errorf("panic after the response started: re-panicked %v, want http.ErrAbortHandler", repanic)
	}
	if got := count("/late"); got != 1 {
		t.Errorf("requests{/late,GET,500} = %d, want 1", got)
	}

	_, repanic = serve("/abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	if repanic != http.ErrAbortHandler {
		t.Errorf("http.ErrAbortHandler: re-panicked %v, want http.ErrAbortHandler", repanic)
	}
}

// lockedBuffer is an io.Writer safe for the server's goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogFollowsTraceSampler pins the access-log rule: a 2xx line
// is written only when the request's trace was captured (head-sampled
// or slow) and carries its trace_id; every 4xx and 5xx line is written,
// traced or not.
func TestAccessLogFollowsTraceSampler(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cfg         tracing.Config
		wantSuccess bool
	}{
		{"tracing off", tracing.Config{}, false},
		{"unsampled", tracing.Config{SlowThreshold: time.Hour}, false},
		{"head-sampled", tracing.Config{SampleRate: 1}, true},
		{"slow", tracing.Config{SlowThreshold: time.Nanosecond}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logs lockedBuffer
			svc := route.NewService(mpls.MustGenerate(mpls.Config{}))
			srv := NewServer(svc, WithLogger(slog.New(slog.NewTextHandler(&logs, nil))), WithTracing(tc.cfg))
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			for _, q := range []string{"/v1/route?from=A&to=B", "/v1/route?from=ZZZ&to=B", "/v1/map"} {
				resp, err := http.Get(ts.URL + q)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
			out := logs.String()
			if !strings.Contains(out, "status=400") {
				t.Errorf("the 400 was not logged:\n%s", out)
			}
			successes := strings.Count(out, "status=200")
			if tc.wantSuccess && successes != 2 {
				t.Errorf("%d of 2 captured successes logged:\n%s", successes, out)
			}
			if !tc.wantSuccess && successes != 0 {
				t.Errorf("%d uncaptured successes logged:\n%s", successes, out)
			}
			for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
				if strings.Contains(line, "status=200") && !strings.Contains(line, "trace_id=") {
					t.Errorf("logged success without a trace_id: %s", line)
				}
			}
		})
	}
}

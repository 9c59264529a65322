package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/mpls"
	"repro/internal/route"
	"repro/internal/search"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around a public function of that layer. Parent names the span of the
// same operation at the boundary above; a probe — a call the request
// path would not have made, such as the kernel behind a cache hit — has
// none.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// Replay sizes: enough operations for stable medians, few enough that
// four boundaries fit in a run.
const (
	replayReads   = 2000
	replayBatches = 60
	replayWrites  = 40
	probeBatches  = 8
	genRepeats    = 3
)

// replayStream is the seeded operation stream the boundaries replay: a
// prefix of the run's reads followed by a prefix of its publishes, or for
// live traffic the two interleaved in schedule order.
func replayStream(w workload, in *inputs) (warm, stream []op) {
	reads := in.open
	if len(reads) == 0 {
		reads = in.closed
	}
	nr := replayReads
	if w.batch > 0 {
		nr = replayBatches
	}
	reads = reads[:min(nr, len(reads))]
	writes := in.quiet
	if len(in.ticks) > 0 {
		writes = in.ticks
	}
	writes = writes[:min(replayWrites, len(writes))]
	if len(in.ticks) > 0 {
		// Only the reads scheduled while those writes land, so the
		// replayed reads see the publish rate the run saw.
		reads = reads[:min(len(reads), int(float64(len(writes))*w.openRate/w.tickRate))]
	}
	warm = in.warm[:min(len(in.warm), 200)]
	if w.zipf {
		warm = in.warm[:w.pairSet] // the whole pair set, so the cache starts full
	}
	if len(in.ticks) == 0 {
		return warm, append(append([]op(nil), reads...), writes...)
	}
	i, j := 0, 0
	for i < len(reads) || j < len(writes) {
		if j == len(writes) || (i < len(reads) && float64(i)/w.openRate <= float64(j)/w.tickRate) {
			stream = append(stream, reads[i])
			i++
		} else {
			stream = append(stream, writes[j])
			j++
		}
	}
	return warm, stream
}

// optionsFor is the route options the handler derives from w's reads.
func optionsFor(w workload) (core.Options, error) {
	if w.algo == "" {
		return core.Options{}, nil
	}
	a, err := core.ParseAlgorithm(w.algo)
	return core.Options{Algorithm: a}, err
}

// tracer collects spans in memory, indexed by name and op for the self
// times.
type tracer struct {
	spans  []span
	byName map[string]map[int]span
}

func (t *tracer) record(name string, op int, parent string, start, end int64) {
	s := span{Name: name, Op: op, Parent: parent, Start: start, End: end}
	t.spans = append(t.spans, s)
	if t.byName[name] == nil {
		t.byName[name] = make(map[int]span)
	}
	t.byName[name][op] = s
}

// traceLayers replays the run's stream at each layer boundary in turn —
// socket, ServeHTTP, route.Service, kernel and write-path steps — each
// against a fresh service built from the same seed, and derives the
// per-layer metrics.
func traceLayers(ctx context.Context, w workload, seed int64, in *inputs, un *untraced, o options) ([]metric, error) {
	warm, stream := replayStream(w, in)
	t := &tracer{byName: make(map[string]map[int]span)}
	rep := &report{}

	// Socket: the whole request as the client sees it.
	st, _, err := startStack(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	c := newConn(st.addr)
	rec := newRecorder(nil, len(stream)+len(warm), 0, 0)
	for i := range warm {
		rec.results = append(rec.results, result{})
		c.send(ctx, in, &warm[i], rec, &rec.results[len(rec.results)-1])
	}
	for i := range stream {
		rec.results = append(rec.results, result{sent: now()})
		r := &rec.results[len(rec.results)-1]
		c.send(ctx, in, &stream[i], rec, r)
		if r.failed {
			c.close()
			_ = st.stop() // the replay's failure is the one to report
			return nil, fmt.Errorf("traced socket replay: %w", rec.firstErr)
		}
		t.record("net", i, "", r.sent, r.done)
	}
	c.close()
	if err := st.stop(); err != nil {
		return nil, err
	}

	// ServeHTTP: the handler into a ResponseRecorder.
	svc, _, err := newService(in.g)
	if err != nil {
		return nil, err
	}
	api := newAPI(svc)
	h := api.Handler()
	prepare := requestMaker(in)
	for i := range warm {
		h.ServeHTTP(prepare(&warm[i]))
	}
	var acquire []float64
	for i := range stream {
		o := &stream[i]
		rr, req := prepare(o)
		start := now()
		h.ServeHTTP(rr, req)
		end := now()
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("traced ServeHTTP replay: status %d: %s", rr.Code, rr.Body.Bytes())
		}
		t.record("httpapi", i, "net", start, end)
		if o.kind != opPublish {
			start = now()
			release, err := api.Admission().Acquire(ctx, 1)
			if err != nil {
				return nil, err
			}
			release()
			acquire = append(acquire, float64(now()-start))
		}
	}
	allocs, allocBytes, err := allocProbe(in, warm, stream)
	if err != nil {
		return nil, err
	}

	// route.Service: the call the handler makes.
	svc, _, err = newService(in.g)
	if err != nil {
		return nil, err
	}
	opts, err := optionsFor(w)
	if err != nil {
		return nil, err
	}
	for i := range warm {
		for _, p := range in.pairsOf(&warm[i]) {
			if _, err := svc.ComputeCtx(ctx, p.from, p.to, opts); err != nil {
				return nil, err
			}
		}
	}
	missed := make(map[int]bool)
	for i := range stream {
		o := &stream[i]
		_, miss0, _ := svc.CacheStats()
		start := now()
		var err error
		switch o.kind {
		case opRoute:
			p := in.pairsOf(o)[0]
			_, err = svc.ComputeCtx(ctx, p.from, p.to, opts)
		case opBatch:
			rs := svc.ComputeBatchCtx(ctx, toRoutePairs(in.pairsOf(o)), opts)
			for _, r := range rs {
				if err == nil {
					err = r.Err
				}
			}
		default:
			_, err = svc.ApplyTrafficBatchCtx(ctx, in.changesOf(o))
		}
		end := now()
		if err != nil {
			return nil, fmt.Errorf("traced route replay: %w", err)
		}
		_, miss1, _ := svc.CacheStats()
		missed[i] = miss1 > miss0
		t.record("route", i, "httpapi", start, end)
	}

	// Kernel and write-path steps, on the benchmark's own evolving copy
	// of the map and its own hierarchy: first as the request path makes
	// them (a kernel only behind a cache miss), then once more with every
	// read pair through both kernels as probes, so the kernel rows cover
	// all pairs without the probes disturbing the timed write path.
	tb0 := time.Now()
	topo, err := ch.BuildTopology(in.g, ch.Options{})
	if err != nil {
		return nil, err
	}
	topoSecs := time.Since(tb0).Seconds()
	est := estimator.Euclidean()
	var settled, relaxed, iters, relax, nPairs float64
	kernel := make(map[int]float64) // op → kernel time on the request path, µs
	var cur *graph.Graph
	for _, probe := range []bool{false, true} {
		cur = in.g.Clone()
		ix, err := topo.NewIndex(cur)
		if err != nil {
			return nil, err
		}
		for i := range stream {
			o := &stream[i]
			if o.kind == opPublish {
				s0 := now()
				next := cur.Clone()
				s1 := now()
				if _, err := next.ApplyBatch(in.changesOf(o)); err != nil {
					return nil, err
				}
				s2 := now()
				nix, err := topo.NewIndex(next)
				if err != nil {
					return nil, err
				}
				s3 := now()
				if !probe {
					t.record("graph.clone", i, "route", s0, s1)
					t.record("graph.apply", i, "route", s1, s2)
					t.record("ch.customize", i, "route", s2, s3)
				}
				cur, ix = next, nix
				continue
			}
			if !probe && !missed[i] {
				continue
			}
			for _, p := range in.pairsOf(o) {
				s0 := now()
				var res ch.Result
				if probe || opts.Algorithm == core.CH {
					if res, err = ix.QueryCtx(ctx, p.from, p.to); err != nil {
						return nil, err
					}
				}
				s1 := now()
				var ar search.Result
				if probe || opts.Algorithm != core.CH {
					if ar, err = search.AStarCtx(ctx, cur, p.from, p.to, est); err != nil {
						return nil, err
					}
				}
				s2 := now()
				switch {
				case probe:
					settled += float64(res.Settled)
					relaxed += float64(res.Relaxed)
					iters += float64(ar.Trace.Iterations)
					relax += float64(ar.Trace.Relaxations)
					nPairs++
					t.spans = append(t.spans, span{Name: "ch", Op: i, Start: s0, End: s1},
						span{Name: "search", Op: i, Start: s1, End: s2})
				case opts.Algorithm == core.CH:
					kernel[i] += float64(s1-s0) / 1e3
					t.spans = append(t.spans, span{Name: "ch", Op: i, Parent: "route", Start: s0, End: s1})
				default:
					kernel[i] += float64(s2-s1) / 1e3
					t.spans = append(t.spans, span{Name: "search", Op: i, Parent: "route", Start: s1, End: s2})
				}
			}
		}
	}
	cloneBytes := allocated(func() { cur.Clone() })

	batchUS, fanout, err := batchProbe(ctx, w, seed, in.g, opts)
	if err != nil {
		return nil, err
	}

	// Self times per operation, then their medians.
	procs := float64(runtime.GOMAXPROCS(0))
	var netSelf, apiSelf, routeSelf, kern, handler, compute, netSpan []float64
	var publish, publishSelf []float64
	for i := range stream {
		n, a, r := t.byName["net"][i], t.byName["httpapi"][i], t.byName["route"][i]
		if stream[i].kind == opPublish {
			steps := t.byName["graph.clone"][i].us() + t.byName["graph.apply"][i].us() + t.byName["ch.customize"][i].us()
			publish = append(publish, r.us()/1e3)
			publishSelf = append(publishSelf, (r.us()-steps)/1e3)
			continue
		}
		k := kernel[i]
		if stream[i].kind == opBatch {
			k /= procs
		}
		netSpan = append(netSpan, n.us())
		netSelf = append(netSelf, n.us()-a.us())
		handler = append(handler, a.us())
		apiSelf = append(apiSelf, a.us()-r.us())
		compute = append(compute, r.us())
		routeSelf = append(routeSelf, r.us()-k)
		kern = append(kern, k)
	}
	// spanUS returns the durations of the name spans with the given parent
	// ("" selects the probes).
	spanUS := func(name, parent string) []float64 {
		var out []float64
		for _, s := range t.spans {
			if s.Name == name && s.Parent == parent {
				out = append(out, s.us())
			}
		}
		return out
	}
	med := func(xs []float64) float64 { return quantile(xs, 0.5) }
	untracedUS := un.readP50ms * 1e3
	rows := []metric{
		{"net.self", med(netSelf), "us", len(netSelf)},
		{"httpapi.self", med(apiSelf), "us", len(apiSelf)},
		{"route.self", med(routeSelf), "us", len(routeSelf)},
		{"kernel", med(kern), "us", len(kern)},
	}
	residual := untracedUS
	for _, r := range rows {
		residual -= r.value
	}
	fmt.Fprintf(o.log, "%s layer breakdown of the untraced read median (%.1f us):\n", w.name, untracedUS)
	for _, r := range append(rows, metric{"residual", residual, "us", 0}) {
		fmt.Fprintf(o.log, "  %-14s %10.2f us\n", r.name, r.value)
	}

	d := func(a, b uint64) float64 { return float64(a - b) }
	admTotal := d(un.after.adm.Granted, un.before.adm.Granted) + d(un.after.adm.Queued, un.before.adm.Queued) + d(un.after.adm.Shed, un.before.adm.Shed)
	hits, misses := d(un.after.hits, un.before.hits), d(un.after.misses, un.before.misses)
	ops := float64(max(un.ops, 1))

	rep.add("loadgen.late_p99_ms", un.lateP99ms, "ms", un.lateN)
	rep.add("net.self_us", med(netSelf), "us", len(netSelf))
	rep.add("httpapi.handler_us", med(handler), "us", len(handler))
	rep.add("httpapi.self_us", med(apiSelf), "us", len(apiSelf))
	rep.add("httpapi.allocs_per_op", med(allocs), "count", len(allocs))
	rep.add("httpapi.bytes_per_op", med(allocBytes), "B", len(allocBytes))
	rep.add("admission.acquire_ns", med(acquire), "ns", len(acquire))
	rep.add("admission.queued_ratio", d(un.after.adm.Queued, un.before.adm.Queued)/max(admTotal, 1), "ratio", int(admTotal))
	rep.add("admission.shed_ratio", d(un.after.adm.Shed, un.before.adm.Shed)/max(admTotal, 1), "ratio", int(admTotal))
	rep.add("route.compute_us", med(compute), "us", len(compute))
	rep.add("route.self_us", med(routeSelf), "us", len(routeSelf))
	rep.add("route.cache_hit_ratio", hits/max(hits+misses, 1), "ratio", int(hits+misses))
	rep.add("route.batch_us", med(batchUS), "us", len(batchUS))
	rep.add("route.batch_fanout_eff", med(fanout), "ratio", len(fanout))
	rep.add("route.publish_ms", med(publish), "ms", len(publish))
	rep.add("route.publish_self_ms", med(publishSelf), "ms", len(publishSelf))
	rep.add("ch.query_us", med(spanUS("ch", "")), "us", int(nPairs))
	rep.add("ch.settled_per_query", settled/max(nPairs, 1), "count", int(nPairs))
	rep.add("ch.relaxed_per_query", relaxed/max(nPairs, 1), "count", int(nPairs))
	rep.add("ch.customize_ms", med(spanUS("ch.customize", "route"))/1e3, "ms", len(publish))
	rep.add("ch.triangles", float64(topo.Triangles()), "count", 1)
	rep.add("ch.arcs", float64(topo.Arcs()), "count", 1)
	rep.add("ch.topology_build_s", topoSecs, "s", 1)
	rep.add("search.astar_us", med(spanUS("search", "")), "us", int(nPairs))
	rep.add("search.iterations_per_query", iters/max(nPairs, 1), "count", int(nPairs))
	rep.add("search.relaxations_per_query", relax/max(nPairs, 1), "count", int(nPairs))
	rep.add("graph.clone_us", med(spanUS("graph.clone", "route")), "us", len(publish))
	rep.add("graph.clone_bytes", cloneBytes, "count", 1)
	rep.add("graph.apply_us", med(spanUS("graph.apply", "route")), "us", len(publish))
	gridMS, mplsMS, err := generatorTimes(w, seed)
	if err != nil {
		return nil, err
	}
	rep.add("gridgen.generate_ms", gridMS, "ms", genRepeats)
	rep.add("mpls.generate_ms", mplsMS, "ms", genRepeats)
	rep.add("go.alloc_bytes_per_op", float64(un.gc.allocBytes)/ops, "B", un.ops)
	rep.add("go.gc_cycles_per_kop", float64(un.gc.cycles)*1000/ops, "1/kop", un.ops)
	rep.add("trace.overhead_us", med(netSpan)-untracedUS, "us", len(netSpan))
	rep.add("trace.residual_us", residual, "us", len(netSpan))

	if o.spans != "" {
		if err := writeSpans(o.spans, t.spans); err != nil {
			return nil, err
		}
	}
	return rep.metrics, nil
}

// requestMaker returns a function that renders an op as a fresh request
// and response recorder for the handler.
func requestMaker(in *inputs) func(o *op) (*httptest.ResponseRecorder, *http.Request) {
	var buf []byte
	return func(o *op) (*httptest.ResponseRecorder, *http.Request) {
		method, path, body := in.request(o, &buf)
		return httptest.NewRecorder(), httptest.NewRequest(method, path, bytes.NewReader(body))
	}
}

// allocProbe replays the stream through the handler of another fresh
// service with one P and returns each read's allocation count and bytes
// in ServeHTTP. With one P a batch fans out to a single worker and pooled
// objects come back to the one P that freed them, so the counts repeat
// exactly between runs with one seed; the timed replays keep every P.
func allocProbe(in *inputs, warm, stream []op) (allocs, allocBytes []float64, err error) {
	svc, _, err := newService(in.g)
	if err != nil {
		return nil, nil, err
	}
	h := newAPI(svc).Handler()
	prepare := requestMaker(in)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := range warm {
		h.ServeHTTP(prepare(&warm[i]))
	}
	var m0, m1 runtime.MemStats
	for i := range stream {
		o := &stream[i]
		rr, req := prepare(o)
		runtime.ReadMemStats(&m0)
		h.ServeHTTP(rr, req)
		runtime.ReadMemStats(&m1)
		if rr.Code != http.StatusOK {
			return nil, nil, fmt.Errorf("allocation replay: status %d: %s", rr.Code, rr.Body.Bytes())
		}
		if o.kind != opPublish {
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
			allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		}
	}
	return allocs, allocBytes, nil
}

func toRoutePairs(ps []pair) []route.Pair {
	out := make([]route.Pair, len(ps))
	for i, p := range ps {
		out[i] = route.Pair{From: p.from, To: p.to}
	}
	return out
}

// allocated returns the bytes f allocates, the median of three calls.
func allocated(f func()) float64 {
	var xs []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		xs = append(xs, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	return quantile(xs, 0.5)
}

// batchProbe fans batches of fresh pairs through ComputeBatchCtx on a
// fresh service, and the same pairs one by one through the workload's
// kernel, giving batch time and fan-out efficiency: sequential kernel
// time over batch wall time times GOMAXPROCS.
func batchProbe(ctx context.Context, w workload, seed int64, g *graph.Graph, opts core.Options) (batchUS, eff []float64, err error) {
	svc, _, err := newService(g)
	if err != nil {
		return nil, nil, err
	}
	snap := svc.Snapshot()
	pg := newPairGen(g, rand.New(rand.NewSource(seed^0x5eed)))
	per := batchPairs
	if w.batch > 0 {
		per = w.batch
	}
	est := estimator.Euclidean()
	procs := float64(runtime.GOMAXPROCS(0))
	for b := 0; b < probeBatches; b++ {
		ps, err := pg.drawN(per)
		if err != nil {
			return nil, nil, err
		}
		start := now()
		for _, r := range svc.ComputeBatchCtx(ctx, toRoutePairs(ps), opts) {
			if r.Err != nil {
				return nil, nil, r.Err
			}
		}
		wall := float64(now() - start)
		var seq int64
		for _, p := range ps {
			s := now()
			if opts.Algorithm == core.CH {
				_, err = snap.CH().QueryCtx(ctx, p.from, p.to)
			} else {
				_, err = search.AStarCtx(ctx, snap.Graph(), p.from, p.to, est)
			}
			if err != nil {
				return nil, nil, err
			}
			seq += now() - s
		}
		batchUS = append(batchUS, wall/1e3)
		eff = append(eff, float64(seq)/(wall*procs))
	}
	return batchUS, eff, nil
}

// generatorTimes times both map generators, the median of a few calls
// each: the grid at the workload's side (k=48 for the mpls workload).
func generatorTimes(w workload, seed int64) (gridMS, mplsMS float64, err error) {
	k := w.k
	if !w.grid {
		k = gridK
	}
	var gt, mt []float64
	for i := 0; i < genRepeats; i++ {
		s := time.Now()
		if _, err := gridgen.Generate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: seed}); err != nil {
			return 0, 0, err
		}
		gt = append(gt, float64(time.Since(s))/1e6)
		s = time.Now()
		if _, err := mpls.Generate(mpls.Config{}); err != nil {
			return 0, 0, err
		}
		mt = append(mt, float64(time.Since(s))/1e6)
	}
	return quantile(gt, 0.5), quantile(mt, 0.5), nil
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

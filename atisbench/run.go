package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/graph"
)

// options are the settings of one run.
type options struct {
	seconds        float64   // measured time, shared among the phases
	trace          bool      // also replay the stream layer by layer and report per-layer metrics
	setupsPerSlice int       // extra set-ups at the start of each slice, timed for setup_s
	spans          string    // file the traced run writes its spans to; "" writes none
	log            io.Writer // human-readable report
}

type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// report is the outcome of one run: the end-to-end metrics, the per-layer
// ones of a traced run, and info that only the human-readable table shows.
type report struct {
	attempted, failed     int
	firstErr              error
	metrics, layers, info []metric
}

func (r *report) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

// inputs are every request of one run, generated from the seed before
// the server exists. Apart from the map, they live off the Go heap.
type inputs struct {
	g       *graph.Graph // the benchmark's own copy of the map
	algo    string       // ?algo= of every read
	pairs   []pair       // the reads' pairs, which ops index
	changes []graph.EdgeCostChange

	// warm, open and closed are reads. ticks are the traffic batches
	// posted at the tick rate beside the open-loop reads, busy those
	// posted back to back beside the closed-loop ones, quiet those of the
	// quiet publish phase, and resets restore the generated costs after
	// each of its slices.
	warm, open, closed, ticks, busy, quiet, resets []op

	mem *arena // holds every slice above
}

func (in *inputs) free() { in.mem.free() }

func makeInputs(w workload, seed int64, seconds float64) (*inputs, error) {
	g, err := generateMap(w, seed)
	if err != nil {
		return nil, err
	}
	rs, err := newReadSource(w, g, seed)
	if err != nil {
		return nil, err
	}
	kind, per := opRoute, 1
	if w.batch > 0 {
		kind, per = opBatch, w.batch
	}
	var pairs []pair
	var changes []graph.EdgeCostChange
	readOps := func(ps []pair) []op {
		ops := make([]op, len(ps)/per)
		for i := range ops {
			ops[i] = op{kind: kind, off: int32(len(pairs)), n: int32(per)}
			pairs = append(pairs, ps[i*per:(i+1)*per]...)
		}
		return ops
	}
	reads := func(n int) ([]op, error) {
		ps, err := rs.take(n * per)
		return readOps(ps), err
	}
	tg := newTrafficGen(g, seed)
	publishes := func(n int) []op {
		ops := make([]op, n)
		for i, b := range tg.take(n, tickEdges) {
			ops[i] = op{kind: opPublish, off: int32(len(changes)), n: int32(len(b))}
			changes = append(changes, b...)
		}
		return ops
	}

	var warm []op
	if w.zipf {
		// Every pair of the set once first, so the cache starts full.
		warm = readOps(rs.fixed)
	}
	more, err := reads(count(w.readCap, warmup.Seconds()))
	if err != nil {
		return nil, err
	}
	warm = append(warm, more...)
	open, err := reads(count(w.openRate, seconds*w.openShare))
	if err != nil {
		return nil, err
	}
	closed, err := reads(count(w.readCap, seconds*w.closedShare))
	if err != nil {
		return nil, err
	}
	ticks := publishes(count(w.tickRate, seconds*w.openShare))
	var busy, quiet, resets []op
	if !w.quietPublish() {
		busy = publishes(count(w.publishCap, seconds*w.closedShare))
	} else {
		quiet = publishes(count(w.publishCap, seconds*publishShare))
		resets = make([]op, slices)
		for i := range resets {
			resets[i] = op{kind: opReset}
		}
	}

	m := &arena{}
	return &inputs{
		g: g, algo: w.algo, mem: m,
		pairs: arenaCopy(m, pairs), changes: arenaCopy(m, changes),
		warm: arenaCopy(m, warm), open: arenaCopy(m, open), closed: arenaCopy(m, closed),
		ticks: arenaCopy(m, ticks), busy: arenaCopy(m, busy), quiet: arenaCopy(m, quiet),
		resets: arenaCopy(m, resets),
	}, nil
}

func count(rate, seconds float64) int { return int(math.Ceil(rate * seconds)) }

// phase is one measured stretch of a run: the ops it drew from, one
// recorder per connection, and process CPU time sampled every window.
type phase struct {
	ops       []op
	recs      []*recorder
	cpu, wall time.Duration // summed over the slices
	samples   [][]cpuSample // per slice
}

type cpuSample struct {
	at  int64
	cpu time.Duration
}

// window is the stretch over which rates, CPU costs and medians are taken;
// see fastQuartile for how a run sums its windows up.
const window = 500 * time.Millisecond

// newPhase reserves, in mem, room for every op of the phase on each of its
// connections — a closed loop deals them out as connections free up — and
// for paths of twice pathLen nodes on average. Only the pages written are
// ever backed by memory.
func newPhase(mem *arena, ops []op, conns, pathLen int) *phase {
	ph := &phase{ops: ops}
	per := 0
	if len(ops) > 0 && ops[0].kind != opPublish {
		per = int(ops[0].n)
	}
	n := len(ops) + 16
	for c := 0; c < conns; c++ {
		ph.recs = append(ph.recs, newRecorder(mem, n, n*per, n*per*pathLen*2))
	}
	return ph
}

// run runs one slice of the phase, sampling process CPU time every window.
func (ph *phase) run(f func()) {
	start := now()
	samples := []cpuSample{{start, cpuTime()}}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tk := time.NewTicker(window)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				samples = append(samples, cpuSample{now(), cpuTime()})
			}
		}
	}()
	f()
	close(stop)
	<-stopped
	end := now()
	samples = append(samples, cpuSample{end, cpuTime()})
	ph.cpu += samples[len(samples)-1].cpu - samples[0].cpu
	ph.wall += time.Duration(end - start)
	ph.samples = append(ph.samples, samples)
}

// windowStat is one sampled window of a phase: units (routes, pairs or
// publishes) completed per second, CPU microseconds per unit, cores busy
// (process CPU time over wall time), and the median latency in
// milliseconds of the requests completed in it.
type windowStat struct{ perSec, cpuUS, cores, p50ms float64 }

// windows returns the phase's windows at least half a window long. With
// rampUp the first window of each slice is left out: on the test host the
// first few hundred milliseconds of a saturating read phase ran up to 2×
// slower however the phase before it ended. Publish slices keep it: a
// quiet slice holds only two windows, and the lower quartile of four
// (the fastest) spread 0.25 of itself over ten runs.
func (ph *phase) windows(rampUp bool) []windowStat {
	var out []windowStat
	first := 1
	if rampUp {
		first = 2
	}
	for _, s := range ph.samples {
		for i := first; i < len(s); i++ {
			a, b := s[i-1], s[i]
			if time.Duration(b.at-a.at) < window/2 {
				continue
			}
			units := 0
			var lat []float64
			for _, rec := range ph.recs {
				for _, r := range rec.results {
					if !r.failed && r.done > a.at && r.done <= b.at {
						units += ph.ops[r.op].units()
						lat = append(lat, float64(r.done-r.due)/1e6)
					}
				}
			}
			if units == 0 {
				continue
			}
			out = append(out, windowStat{
				perSec: float64(units) / (float64(b.at-a.at) / 1e9),
				cpuUS:  float64((b.cpu - a.cpu).Microseconds()) / float64(units),
				cores:  float64(b.cpu-a.cpu) / float64(b.at-a.at),
				p50ms:  quantile(lat, 0.5),
			})
		}
	}
	return out
}

// fastQuartile summarises a phase's windows by their better quartile —
// the lower quartile of a cost, the upper of a rate. A neighbour on a
// shared host only ever slows a window, and on the test host the slow
// stretches lasted seconds and varied in depth from run to run, so the
// faster windows track the program and the median of all windows tracks
// the neighbours.
func fastQuartile(ws []windowStat, f func(windowStat) float64, higherIsBetter bool) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	if higherIsBetter {
		return quantile(xs, 0.75)
	}
	return quantile(xs, 0.25)
}

// windowedP99 is the median, over consecutive stretches of p99Window
// requests in schedule order, of each stretch's 99th percentile latency:
// every stretch has ten samples beyond its p99, and a stall confined to
// one stretch does not set the result.
func (ph *phase) windowedP99() float64 {
	type due struct {
		at  int64
		lat float64
	}
	var all []due
	for _, rec := range ph.recs {
		for _, r := range rec.results {
			if !r.failed {
				all = append(all, due{r.due, float64(r.done-r.due) / 1e6})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	var p99s []float64
	for lo := 0; lo < len(all); lo += p99Window {
		if lo > 0 && len(all)-lo < p99Window {
			break
		}
		var w []float64
		for _, d := range all[lo:min(lo+p99Window, len(all))] {
			w = append(w, d.lat)
		}
		p99s = append(p99s, quantile(w, 0.99))
	}
	return quantile(p99s, 0.5)
}

const p99Window = 1000

// completed counts the ops answered without error, and their pairs.
func (ph *phase) completed() (ops, pairs int) {
	for _, rec := range ph.recs {
		for _, r := range rec.results {
			if !r.failed {
				ops++
				pairs += ph.ops[r.op].units()
			}
		}
	}
	return ops, pairs
}

// latencies returns done−due of every answered op in milliseconds.
func (ph *phase) latencies() []float64 {
	var out []float64
	for _, rec := range ph.recs {
		for _, r := range rec.results {
			if !r.failed {
				out = append(out, float64(r.done-r.due)/1e6)
			}
		}
	}
	return out
}

// lateness returns, in milliseconds, how long after it could have gone
// out each request was sent: after its due time and after its
// connection's previous reply. It measures the generator, not the server.
func (ph *phase) lateness() []float64 {
	var out []float64
	for _, rec := range ph.recs {
		var prev int64
		for _, r := range rec.results {
			out = append(out, float64(r.sent-max(r.due, prev))/1e6)
			prev = r.done
		}
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters are the serving stack's own cumulative counters, read before
// and after the measured phases.
type counters struct {
	hits, misses uint64
	adm          admission.Stats
}

func readCounters(st *stack) counters {
	c := counters{adm: st.api.Admission().Stats()}
	c.hits, c.misses, _ = st.svc.CacheStats()
	return c
}

// gcWork is the Go runtime's allocation and collection counts. They are
// process-wide, so a run sums them over its measured phases alone,
// leaving out the set-ups between slices.
type gcWork struct{ allocBytes, cycles uint64 }

func readGCWork() gcWork {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var w gcWork
	if s[0].Value.Kind() == metrics.KindUint64 {
		w.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		w.cycles = s[1].Value.Uint64()
	}
	return w
}

// untraced is what the traced run needs from the untraced one.
type untraced struct {
	readP50ms     float64
	lateP99ms     float64 // loadgen.late_p99_ms
	lateN         int
	before, after counters
	gc            gcWork
	ops           int
}

// runWorkload runs w once: set-up, warm-up, the measured phases in
// slices that each open with further set-ups, the oracle, and — with o.trace —
// the layer-by-layer replay.
func runWorkload(ctx context.Context, w workload, seed int64, o options) (rep *report, err error) {
	in, err := makeInputs(w, seed, o.seconds)
	if err != nil {
		return nil, err
	}
	mem := in.mem // not in itself: the map copy must not outlive the phases
	defer mem.free()
	pathLen := 48 // nodes per path the buffers expect
	if w.grid {
		pathLen = w.k
	}
	readConns := max(w.openConns, w.closed)
	warm := newPhase(mem, in.warm, readConns, pathLen)
	open := newPhase(mem, in.open, max(w.openConns, 1), pathLen)
	closed := newPhase(mem, in.closed, w.closed, pathLen)
	ticks := newPhase(mem, in.ticks, 1, 0)
	busy := newPhase(mem, in.busy, 1, 0)
	quiet := newPhase(mem, in.quiet, 1, 0)
	resets := newPhase(mem, in.resets, 1, 0)

	st, first, err := startStack(ctx, w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{first.Seconds()}
	stopped := false
	defer func() {
		if !stopped {
			if serr := st.stop(); serr != nil && err == nil {
				err = serr
			}
		}
	}()
	conns := []*conn{newConn(st.addr), newConn(st.addr)}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()

	closedLoop(ctx, in, conns[:readConns], warm.recs, warm.ops, 0, len(warm.ops), warmup)
	runtime.GC()
	before := readCounters(st)
	var gc gcWork
	measure := func(ph *phase, f func()) {
		g0 := readGCWork()
		ph.run(f)
		g1 := readGCWork()
		gc.allocBytes += g1.allocBytes - g0.allocBytes
		gc.cycles += g1.cycles - g0.cycles
	}
	chunk := func(n, j int) (lo, hi int) { return j * n / slices, (j + 1) * n / slices }
	// beside runs f while slice j of the traffic batches wp goes out on
	// the second connection, through send.
	beside := func(wp *phase, j int, send func(lo, hi int), f func()) {
		if len(wp.ops) == 0 {
			f()
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			lo, hi := chunk(len(wp.ops), j)
			wp.run(func() { send(lo, hi) })
		}()
		f()
		<-done
	}
	// The phases alternate in slices, so each samples the whole run rather
	// than one stretch of a host whose speed drifts by ±20 % over seconds.
	// The extra set-ups open each slice, so they are spread the same way
	// and none runs between the last slice and the heap measurement.
	for j := 0; j < slices && ctx.Err() == nil; j++ {
		for i := 0; i < o.setupsPerSlice && ctx.Err() == nil; i++ {
			s, d, err := startStack(ctx, w, seed)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds())
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		st.reinstate()
		runtime.GC() // the set-ups' garbage is not this slice's work
		if len(open.ops) > 0 {
			measure(open, func() {
				tick := func(lo, hi int) { openLoop(ctx, in, conns[1:2], ticks.recs, ticks.ops, lo, hi, w.tickRate) }
				beside(ticks, j, tick, func() {
					lo, hi := chunk(len(open.ops), j)
					openLoop(ctx, in, conns[:w.openConns], open.recs, open.ops, lo, hi, w.openRate)
				})
			})
		}
		d := dur(o.seconds * w.closedShare / slices)
		measure(closed, func() {
			// Live traffic's writer runs flat out here too, so a reader that
			// waits on it leaves a core idle and busy_cores shows it.
			pub := func(lo, hi int) { closedLoop(ctx, in, conns[1:2], busy.recs, busy.ops, lo, hi, d) }
			beside(busy, j, pub, func() {
				lo, hi := chunk(len(closed.ops), j)
				closedLoop(ctx, in, conns[:w.closed], closed.recs, closed.ops, lo, hi, d)
			})
		})
		if w.quietPublish() {
			measure(quiet, func() {
				lo, hi := chunk(len(quiet.ops), j)
				closedLoop(ctx, in, conns[:1], quiet.recs, quiet.ops, lo, hi, dur(o.seconds*publishShare/slices))
			})
			// Back to the generated costs, so the oracle checks every read
			// against the map as generated. The next slice's first window,
			// which the metrics leave out, refills a Zipf workload's cache.
			closedLoop(ctx, in, conns[:1], resets.recs, resets.ops, j, j+1, time.Minute)
		}
	}
	after := readCounters(st)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep = &report{}
	verify(in, rep, []*phase{warm, open, closed}, []*phase{ticks, busy}, []*phase{quiet, resets})

	// The e2e numbers. The closed loop gives cores busy and, but on live
	// traffic, CPU per read; publish latency comes from the quiet phase or
	// the ticks beside the open-loop reads, never from beside a saturating
	// closed loop.
	reads := open
	if len(open.ops) == 0 {
		reads = closed // fleet-batch: its closed-loop batches are its reads
	}
	lat := reads.latencies()
	_, units := closed.completed()
	pubs := quiet
	if !w.quietPublish() {
		pubs = ticks
	}
	pubLat := pubs.latencies()
	readWins, closedWins, pubWins := reads.windows(true), closed.windows(true), pubs.windows(false)
	readP50 := fastQuartile(readWins, func(w windowStat) float64 { return w.p50ms }, false)
	perSec := fastQuartile(closedWins, func(w windowStat) float64 { return w.perSec }, true)
	cpuUS := fastQuartile(closedWins, func(w windowStat) float64 { return w.cpuUS }, false)
	cores := fastQuartile(closedWins, func(w windowStat) float64 { return w.cores }, true)
	pubP50 := fastQuartile(pubWins, func(w windowStat) float64 { return w.p50ms }, false)
	// A run too short for full windows falls back to whole phases.
	if math.IsNaN(readP50) {
		readP50 = quantile(lat, 0.5)
	}
	if math.IsNaN(perSec) || math.IsNaN(cpuUS) || math.IsNaN(cores) {
		perSec = float64(units) / closed.wall.Seconds()
		cpuUS = float64(closed.cpu.Microseconds()) / float64(max(units, 1))
		cores = closed.cpu.Seconds() / closed.wall.Seconds()
	}
	if math.IsNaN(pubP50) {
		pubP50 = quantile(pubLat, 0.5)
	}
	cpuN := units
	if !w.quietPublish() {
		// Live traffic's closed loop has the writer running flat out, so
		// CPU per read is taken from the open loop's fixed rates instead,
		// the writer's ticks included. It comes in publish-sized lumps, so
		// over the whole phase rather than per window.
		cpuN, _ = open.completed()
		cpuUS = float64(open.cpu.Microseconds()) / float64(max(cpuN, 1))
	}
	late := append(open.lateness(), ticks.lateness()...)
	if len(late) == 0 {
		late = closed.lateness() // fleet-batch has no open loop
	}
	un := untraced{
		readP50ms: quantile(lat, 0.5),
		lateP99ms: quantile(late, 0.99),
		lateN:     len(late),
		before:    before,
		after:     after,
		gc:        gc,
	}
	for _, ph := range []*phase{open, closed, ticks, busy, quiet} {
		n, _ := ph.completed()
		un.ops += n
	}

	// Set-up time is summarised like the windowed metrics: a neighbour
	// only ever slows a build, so the faster builds track the program.
	rep.add("setup_s", quantile(setups, 0.25), "s", len(setups))
	rep.add("read_cpu_us", cpuUS, "us", cpuN)
	rep.add("busy_cores", cores, "cores", units)
	rep.add("publish_p50_ms", pubP50, "ms", len(pubLat))
	// Read latency and wall-clock throughput are printed, not gated: on a
	// shared 2-vCPU host they moved 0.25–0.3 of themselves between runs and
	// the tail 0.3–2.6 (see NOISE.md), more than any usable bound. CPU time
	// per read and cores busy, which the host's stolen time does not
	// inflate, are gated instead.
	rep.info = append(rep.info,
		metric{"read_per_s", perSec, "1/s", units},
		metric{"read_p50_ms", readP50, "ms", len(lat)},
		metric{"read_p99_ms", reads.windowedP99(), "ms", len(lat)},
		metric{"publish_p95_ms", quantile(pubLat, 0.95), "ms", len(pubLat)})

	// Drop the run's map copy, then weigh what the server holds.
	warm, open, closed, ticks, busy, quiet, resets, reads, pubs = nil, nil, nil, nil, nil, nil, nil, nil, nil
	if !o.trace {
		in = nil
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Live bytes, not HeapInuse: the spans that hold them, part-filled in
	// an order that concurrent allocation decides, added 0.5–1.3 MB in one
	// run in five, while the live bytes moved 3 % across seeds (NOISE.md).
	rep.add("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB", 1)

	stopped = true
	if err := st.stop(); err != nil {
		return nil, err
	}
	if o.trace {
		layers, err := traceLayers(ctx, w, seed, in, &un, o)
		if err != nil {
			return nil, err
		}
		rep.layers = layers
	}
	return rep, nil
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// verify runs the oracle over every answer of the run and tallies the
// failures: transport errors, non-2xx responses and wrong answers.
func verify(in *inputs, rep *report, readPhases, tickPhases, quietPhases []*phase) {
	// The ticks went out one at a time on one connection, phase after
	// phase, so in order of sending they are also in order of reply.
	type posted struct {
		o          *op
		sent, done int64
	}
	var ps []posted
	for _, ph := range tickPhases {
		for _, rec := range ph.recs {
			for _, r := range rec.results {
				ps = append(ps, posted{&ph.ops[r.op], r.sent, r.done})
			}
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].sent < ps[j].sent })
	tl := &timeline{}
	for _, p := range ps {
		tl.batches = append(tl.batches, in.changesOf(p.o))
		tl.sent = append(tl.sent, p.sent)
		tl.done = append(tl.done, p.done)
	}
	var checks []check
	for _, ph := range readPhases {
		for _, rec := range ph.recs {
			for j := range rec.results {
				r := &rec.results[j]
				if r.failed {
					continue
				}
				lo, hi := tl.window(r.sent, r.done)
				for k, p := range in.pairsOf(&ph.ops[r.op]) {
					a := rec.answers[int(r.ans)+k]
					checks = append(checks, check{p: p, a: a, nodes: rec.nodes[a.off : a.off+a.n], lo: lo, hi: hi, failed: &r.wrong})
				}
			}
		}
	}
	var first error
	if len(tl.batches) > 0 {
		first = verifyLive(in.g, tl, checks)
	} else {
		first = verifyStatic(in.g, checks)
	}
	writePhases := append(tickPhases, quietPhases...)
	for _, ph := range writePhases {
		for _, rec := range ph.recs {
			for j := range rec.results {
				r := &rec.results[j]
				o := &ph.ops[r.op]
				if n := o.n; o.kind == opPublish && !r.failed && r.affected != n {
					r.wrong = true
					if first == nil {
						first = fmt.Errorf("publish of %d edges affected %d", n, r.affected)
					}
				}
			}
		}
	}
	for _, ph := range append(readPhases, writePhases...) {
		for _, rec := range ph.recs {
			if rep.firstErr == nil {
				rep.firstErr = rec.firstErr
			}
			for _, r := range rec.results {
				rep.attempted++
				if r.failed || r.wrong {
					rep.failed++
				}
			}
		}
	}
	if rep.firstErr == nil {
		rep.firstErr = first
	}
}

// quantile is the nearest-rank q-quantile of xs; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

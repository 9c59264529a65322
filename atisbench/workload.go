package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/mpls"
)

// workload is one traffic mix. Every rate is a constant of the definition
// and is never calibrated per run, so two commits see the same offered
// load. Open-loop reads go over one or two connections with one request in
// flight each, so the rates leave every connection idle three quarters of
// the time or more (a sixth of closed-loop capacity on a 2-vCPU host): at a
// third, the host's slow stretches built backlogs that set whole runs.
type workload struct {
	name string

	grid bool // k×k 20 %-variance grid; otherwise the mpls map
	k    int

	algo    string // ?algo= of reads; "" is the server default (A*, Euclidean)
	zipf    bool   // reads draw Zipf(1.1) from a fixed pair set; otherwise every pair is fresh
	pairSet int    // size of the fixed pair set when zipf
	batch   int    // pairs per POST /v1/routes/batch; 0 means single GET /v1/route reads

	openRate  float64 // reads/s of the open-loop phase; 0 means no open-loop phase
	openConns int     // connections the open-loop reads use
	closed    int     // connections of the closed-loop read phase

	// tickRate is the traffic batches/s posted on the second connection
	// beside the open-loop reads; beside the closed-loop reads the batches
	// go back to back. Workloads without ticks publish instead in a quiet
	// closed-loop phase between their reads, so every workload reports
	// publish latency; see quietPublish.
	tickRate float64

	// setupsPerSlice is how many extra times a run builds a server at the
	// start of each slice; setup_s summarises these and the first build. The mpls
	// map builds in ~20 ms, the grid in ~0.4 s.
	setupsPerSlice int

	// Shares of --seconds given to the open and closed read phases. A
	// quiet publish phase takes publishShare; the phases alternate in
	// slices (see below).
	openShare, closedShare float64

	// readCap and publishCap bound the pre-generated closed-loop streams
	// (ops/s, about 1.5× the capacity seen on a 2-vCPU host); a phase that
	// exhausts its stream ends early.
	readCap, publishCap float64
}

const (
	zipfS        = 1.1
	slices       = 4   // the open and closed phases alternate in this many slices
	publishShare = 0.2 // of --seconds, for the quiet publish phase
	fixedPairs   = 1024
	batchPairs   = 64
	tickEdges    = 16 // edges per traffic batch
	gridK        = 48
	warmup       = time.Second
)

var workloads = []workload{
	// Nearly every read is a route-cache hit, so the HTTP shell and the
	// cache do the work; a kernel change should not move it.
	{
		name: "hot-commute",
		algo: "", zipf: true, pairSet: fixedPairs,
		openRate: 4000, openConns: 2, closed: 2,
		openShare: 0.4, closedShare: 0.4,
		readCap: 40000, publishCap: 2500,
		setupsPerSlice: 5,
	},
	// Fresh pairs miss the cache, so ch.Index.QueryCtx dominates.
	{
		name: "ch-cold",
		grid: true, k: gridK,
		algo:     "ch",
		openRate: 1500, openConns: 2, closed: 2,
		openShare: 0.4, closedShare: 0.4,
		readCap: 16000, publishCap: 400,
		setupsPerSlice: 2,
	},
	// The paper's kernel (search) and the batch fan-out do the work; CH is
	// bypassed and the shell's cost is spread over 64 pairs.
	{
		name: "fleet-batch",
		grid: true, k: gridK,
		algo: "astar-euclidean", batch: batchPairs,
		closed:      1,
		closedShare: 0.8,
		readCap:     360, publishCap: 400,
		setupsPerSlice: 2,
	},
	// The write path (clone, apply, customize, install) runs beside reads
	// that do not saturate the CPU; publishes empty the route cache. In
	// the closed-loop slices reader and writer both run flat out, which
	// shows whether reads wait on the writer; publish latency is taken in
	// the open-loop slices only.
	{
		name: "live-traffic",
		grid: true, k: gridK,
		algo: "ch", zipf: true, pairSet: fixedPairs,
		openRate: 500, openConns: 1, closed: 1,
		tickRate:  30,
		openShare: 0.75, closedShare: 0.25,
		readCap: 45000, publishCap: 400,
		setupsPerSlice: 2,
	},
}

// quietPublish reports whether w publishes in a quiet phase after its
// reads rather than in ticks beside them.
func (w workload) quietPublish() bool { return w.tickRate == 0 }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tiny shrinks a workload for the benchmark's own tests: a k=8 grid and
// low rates, so a run is a few hundred operations.
func (w workload) tiny() workload {
	if w.grid {
		w.k = 8
	}
	if w.zipf {
		w.pairSet = 64
	}
	if w.batch > 0 {
		w.batch = 8
	}
	w.openRate /= 20
	w.tickRate /= 3
	w.readCap /= 20
	w.publishCap /= 20
	return w
}

// generateMap builds the workload's road map. Grid costs come from the
// seed; the mpls map is the server's default one (seed 1993) whatever the
// seed, because its hierarchy's size moves ±20 % between seeds and would
// swamp the publish figures.
func generateMap(w workload, seed int64) (*graph.Graph, error) {
	if w.grid {
		return gridgen.Generate(gridgen.Config{K: w.k, Model: gridgen.Variance, Seed: seed})
	}
	return mpls.Generate(mpls.Config{})
}

// pair is one origin–destination read.
type pair struct{ from, to graph.NodeID }

// pairGen draws distinct pairs spread evenly over ten Euclidean-distance
// deciles (Wu et al.'s distance buckets), cycling through the deciles so
// every prefix of the stream is balanced.
type pairGen struct {
	g      *graph.Graph
	rng    *rand.Rand
	bounds [11]float64
	seen   map[pair]bool
	next   int
}

func newPairGen(g *graph.Graph, rng *rand.Rand) *pairGen {
	n := g.NumNodes()
	const sample = 20000
	d := make([]float64, 0, sample)
	for len(d) < sample {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			d = append(d, g.Point(u).EuclideanDistance(g.Point(v)))
		}
	}
	sort.Float64s(d)
	pg := &pairGen{g: g, rng: rng, seen: make(map[pair]bool)}
	for i := 1; i < 10; i++ {
		pg.bounds[i] = d[i*sample/10]
	}
	pg.bounds[10] = math.Inf(1)
	return pg
}

func (pg *pairGen) draw() (pair, error) {
	n := pg.g.NumNodes()
	lo, hi := pg.bounds[pg.next%10], pg.bounds[pg.next%10+1]
	pg.next++
	for try := 0; try < 10000; try++ {
		p := pair{graph.NodeID(pg.rng.Intn(n)), graph.NodeID(pg.rng.Intn(n))}
		if p.from == p.to || pg.seen[p] {
			continue
		}
		if d := pg.g.Point(p.from).EuclideanDistance(pg.g.Point(p.to)); d < lo || d >= hi {
			continue
		}
		pg.seen[p] = true
		return p, nil
	}
	return pair{}, fmt.Errorf("no fresh pair left in distance decile [%g, %g)", lo, hi)
}

func (pg *pairGen) drawN(n int) ([]pair, error) {
	out := make([]pair, n)
	for i := range out {
		p, err := pg.draw()
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// readSource yields the read pairs of one run. Zipf workloads index a
// fixed pair set; the others take fresh pairs that never repeat.
type readSource struct {
	fixed []pair
	zipf  *rand.Zipf
	gen   *pairGen
}

func newReadSource(w workload, g *graph.Graph, seed int64) (*readSource, error) {
	rng := rand.New(rand.NewSource(seed))
	rs := &readSource{gen: newPairGen(g, rng)}
	if w.zipf {
		fixed, err := rs.gen.drawN(w.pairSet)
		if err != nil {
			return nil, err
		}
		rs.fixed = fixed
		rs.zipf = rand.NewZipf(rng, zipfS, 1, uint64(w.pairSet-1))
	}
	return rs, nil
}

func (rs *readSource) take(n int) ([]pair, error) {
	if rs.zipf == nil {
		return rs.gen.drawN(n)
	}
	out := make([]pair, n)
	for i := range out {
		out[i] = rs.fixed[rs.zipf.Uint64()]
	}
	return out, nil
}

// trafficGen draws traffic-feed ticks: each change sets an edge to an
// absolute cost of base × U(1, 3), so costs keep one distribution for the
// whole run however many ticks land.
type trafficGen struct {
	edges []graph.Edge
	rng   *rand.Rand
}

func newTrafficGen(g *graph.Graph, seed int64) *trafficGen {
	return &trafficGen{edges: g.Edges(), rng: rand.New(rand.NewSource(seed ^ 0x7ea1))}
}

func (tg *trafficGen) take(n, edges int) [][]graph.EdgeCostChange {
	out := make([][]graph.EdgeCostChange, n)
	for i := range out {
		b := make([]graph.EdgeCostChange, edges)
		for j := range b {
			e := tg.edges[tg.rng.Intn(len(tg.edges))]
			b[j] = graph.EdgeCostChange{Tail: e.Tail, Head: e.Head, Cost: e.Cost * (1 + 2*tg.rng.Float64())}
		}
		out[i] = b
	}
	return out
}

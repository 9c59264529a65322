// Package route provides the three ATIS facilities of the paper's
// introduction (Section 1.1) on top of the core planner:
//
//   - route computation — "locate a connected sequence of road segments
//     from current location to destination",
//   - route evaluation — "find the attributes of a given route between two
//     points … travel time and traffic congestion information",
//   - route display — "effectively communicate the optimal route to the
//     traveller".
//
// It also models the real-time traffic feed the paper motivates ("an
// effective navigation system with static route selection, coupled with
// real-time traffic information"): congestion updates build a fresh
// immutable Snapshot off to the side and publish it atomically, and
// recomputation picks up the new costs through the next snapshot load.
//
// Service is safe for concurrent use. Its read methods are lock-free and
// serve entirely from one Snapshot load; its traffic methods serialize
// and clone, apply, then publish. Every method that does work on behalf
// of a request takes that request's context.
package route

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asciichart"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// Service owns the mutable world of a road network — traffic ingestion,
// CH customization, cache invalidation — and serves the three ATIS
// facilities from immutable snapshots of it.
//
// Concurrency discipline: there is no readers–writer lock. The service
// publishes its entire read state as one *Snapshot behind an atomic
// pointer; every query path (ComputeCtx, ComputeBatchCtx, …) loads the
// pointer once, or is handed a snapshot its caller loaded (ComputeIn,
// EvaluateIn, Snapshot.AlternatesCtx, …), and runs to completion against
// that frozen view, so arbitrarily many queries proceed with zero
// coordination — no query ever blocks behind a mutator, however long the
// mutator's customization pass runs. The
// traffic mutators (ApplyRegionCongestionCtx, ApplyTrafficBatchCtx,
// ResetTrafficCtx) and EnableCH serialize on writeMu. The batch and region
// mutators clone the current graph — a copy of its costs, sharing its
// structure — and apply their changes to the clone as one
// graph.ApplyBatch (mutateLocked); a reset clones the pristine base
// instead. Either way one publish (publishLocked) re-customizes the
// hierarchy's metric for the new costs and swaps the finished Snapshot
// in. The route cache is keyed on (endpoints, options, snapshot cost
// generation) and has its own per-shard locks; a cost-changing publish
// empties it just before the swap, so it only ever holds routes of the
// published generation.
type Service struct {
	base *graph.Graph // pristine costs, for congestion ratios, reset and the CH topology

	// snap is the published read view; see Snapshot. writeMu serializes
	// everyone who publishes a successor (traffic mutators, EnableCH), so
	// publishes are totally ordered. Readers never touch writeMu: every
	// write that built a snapshot (graph costs, CH metric arrays) happens
	// before its Store, so a reader that Loads the pointer sees the
	// snapshot fully built.
	snap    atomic.Pointer[Snapshot]
	writeMu sync.Mutex

	cache *routeCache

	// chTopo holds the metric-independent contraction topology
	// (contraction order, shortcut skeleton, triangle lists), nil until
	// EnableCH builds it. The graph's structure never changes after
	// construction, so one build serves every later customization; the
	// customized metric itself lives inside each Snapshot. Only EnableCH
	// writes chTopo and only customizeFor reads it, both under writeMu.
	chTopo *ch.Topology

	// Telemetry. The registry is the single source of truth for every
	// service counter: CacheStats and the legacy /stats payload read the
	// same instruments /metrics exports, so the two cannot disagree.
	reg            *telemetry.Registry
	cacheHits      *telemetry.Counter
	cacheMiss      *telemetry.Counter
	computeSeconds map[core.Algorithm]*telemetry.Histogram
	batchRequests  *telemetry.Counter
	batchPairs     *telemetry.Counter
	trafficUpdates *telemetry.Counter

	chQuerySeconds     *telemetry.Histogram
	chRebuildSeconds   *telemetry.Histogram
	chCustomizeSeconds *telemetry.Histogram
	chSettled          *telemetry.Counter
	chQueries          *telemetry.Counter
	chRebuilds         *telemetry.Counter
	chCustomizations   *telemetry.Counter
	trafficBatches     *telemetry.Counter
}

// NewService snapshots g (a Clone, sharing its structure and copying its
// costs) so traffic updates never touch the caller's graph. The service
// records its metrics into a private registry; use NewServiceWithRegistry
// to share one.
func NewService(g *graph.Graph) *Service {
	return NewServiceWithRegistry(g, telemetry.NewRegistry())
}

// NewServiceWithRegistry is NewService recording into reg.
func NewServiceWithRegistry(g *graph.Graph, reg *telemetry.Registry) *Service {
	s := &Service{
		base:  g.Clone(),
		cache: newRouteCache(defaultCacheCapacity),

		reg: reg,
		cacheHits: reg.Counter("atis_route_cache_requests_total",
			"Route computations by cache outcome.", telemetry.L("result", "hit")),
		cacheMiss: reg.Counter("atis_route_cache_requests_total",
			"Route computations by cache outcome.", telemetry.L("result", "miss")),
		computeSeconds: make(map[core.Algorithm]*telemetry.Histogram),
		batchRequests: reg.Counter("atis_route_batch_requests_total",
			"ComputeBatchCtx invocations."),
		batchPairs: reg.Counter("atis_route_batch_pairs_total",
			"Origin-destination pairs fanned out by ComputeBatchCtx."),
		trafficUpdates: reg.Counter("atis_traffic_updates_total",
			"Traffic mutations applied (batch, region congestion, reset)."),

		chQuerySeconds: reg.Histogram("atis_ch_query_seconds",
			"Wall time of queries served by the contraction hierarchy.", nil),
		chRebuildSeconds: reg.Histogram("atis_ch_rebuild_seconds",
			"Wall time of contraction-hierarchy (re)builds.", nil),
		chSettled: reg.Counter("atis_ch_settled_nodes_total",
			"Nodes settled across all CH queries (both directions)."),
		chQueries: reg.Counter("atis_ch_queries_total",
			"Queries served by the contraction hierarchy."),
		chRebuilds: reg.Counter("atis_ch_rebuilds_total",
			"Structural topology builds completed (the first EnableCH)."),
		chCustomizeSeconds: reg.Histogram("atis_ch_customize_seconds",
			"Wall time of metric customization passes over the CH topology.", nil),
		chCustomizations: reg.Counter("atis_ch_customizations_total",
			"Metric customizations completed (cost-only updates, no re-contraction)."),
		trafficBatches: reg.Counter("atis_traffic_batches_total",
			"Batched traffic updates applied through ApplyTrafficBatchCtx."),
	}
	// The first snapshot is published before the service escapes the
	// constructor, so Snapshot() never returns nil and the gauges below
	// can read through it unconditionally.
	s.snap.Store(newSnapshot(g.Clone(), nil, 0, 1))
	s.cache.evictions = reg.Counter("atis_route_cache_evictions_total",
		"Routes evicted from the LRU cache.")
	s.cache.retired = reg.Counter("atis_route_cache_retired_total",
		"Routes dropped from the cache because a publish superseded their cost generation.")
	for _, a := range core.Algorithms() {
		s.computeSeconds[a] = reg.Histogram("atis_route_compute_seconds",
			"Wall time of uncached route computations.", nil, telemetry.L("algo", a.String()))
	}
	reg.GaugeFunc("atis_route_cache_entries",
		"Routes resident in the cache.", func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("atis_traffic_generation",
		"Current cost generation (bumps on every traffic mutation).",
		func() float64 { return float64(s.CostGeneration()) })
	reg.GaugeFunc("atis_snapshot_generation",
		"Publish sequence of the current snapshot (bumps on every swap).",
		func() float64 { return float64(s.snap.Load().seq) })
	reg.GaugeFunc("atis_ch_shortcuts",
		"Shortcut arcs in the current contraction hierarchy (0 until built).",
		func() float64 {
			if ix := s.snap.Load().ch; ix != nil {
				return float64(ix.Shortcuts())
			}
			return 0
		})
	return s
}

// Registry returns the registry holding the service's metrics.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// CostGeneration returns the published snapshot's cost generation. It
// starts at zero and increases by one on every traffic mutation; two equal
// generations imply identical edge costs.
//
//atis:hotpath
func (s *Service) CostGeneration() uint64 {
	return s.snap.Load().gen
}

// CacheStats reports route-cache hits, misses, and resident entries since
// the service was created. The values are read from the same telemetry
// instruments /metrics exports; nothing here can block behind a writer.
func (s *Service) CacheStats() (hits, misses uint64, entries int) {
	return s.cacheHits.Value(), s.cacheMiss.Value(), s.cache.len()
}

// Graph returns the published snapshot's graph. Callers must treat it as
// read-only; use the traffic methods to change costs. Prefer Snapshot for
// multi-step reads that must see one consistent world.
func (s *Service) Graph() *graph.Graph {
	return s.snap.Load().graph
}

// ComputeCtx runs route computation between nodes, consulting the
// generation-keyed cache first: repeated queries for the same endpoints and
// options under unchanged traffic are served from memory without touching
// the search engine. It reads the published snapshot with one atomic load
// and takes no service lock. A traffic mutation bumps the cost generation
// and empties the cache as it publishes, so no cached route outlives the
// costs it was priced under.
//
// The underlying kernel polls ctx from its main loop and the call returns
// a typed lifecycle error (search.ErrCanceled, search.ErrDeadline,
// search.ErrBudget) as soon as the context dies or the expansion budget
// (search.WithBudget) runs out. Cache hits are served regardless of the
// context's state — the answer is already in hand. Lifecycle-aborted
// computations are never cached.
//
// The returned route's node slice is shared with the route cache and
// with every later hit on it: routes are read-only once computed.
func (s *Service) ComputeCtx(ctx context.Context, from, to graph.NodeID, opts core.Options) (core.Route, error) {
	return s.ComputeIn(ctx, s.snap.Load(), from, to, opts)
}

// ComputeIn is ComputeCtx pinned to one already-loaded snapshot — the
// shared entry for callers that serve several reads from one world:
// batch workers, and an HTTP route request that evaluates its answer and
// names its snapshot in a header.
func (s *Service) ComputeIn(ctx context.Context, snap *Snapshot, from, to graph.NodeID, opts core.Options) (core.Route, error) {
	key := cacheKey{
		from: from, to: to,
		algo: opts.Algorithm, weight: opts.Weight, frontier: opts.Frontier,
		gen: snap.gen,
	}
	if rt, ok := s.cacheLookup(ctx, key); ok {
		s.cacheHits.Inc()
		return rt, nil
	}
	start := time.Now()
	rt, err := s.routeSnap(ctx, snap, from, to, opts)
	s.cacheMiss.Inc()
	if err != nil {
		return rt, err
	}
	if h, ok := s.computeSeconds[opts.Algorithm]; ok {
		h.Observe(time.Since(start).Seconds())
	}
	// Stored under the snapshot's generation: if a mutation published
	// meanwhile, the cache has moved past that generation and refuses
	// the entry.
	s.cache.put(key, rt)
	return rt, nil
}

// cacheLookup consults the route cache, recording the outcome as a
// "route.cache" span when a trace is active — a cache hit explains an
// anomalously fast request exactly as a miss explains a slow one.
func (s *Service) cacheLookup(ctx context.Context, key cacheKey) (core.Route, bool) {
	_, sp := tracing.Start(ctx, "route.cache")
	defer sp.End()
	rt, ok := s.cache.get(key)
	sp.SetBool("hit", ok)
	return rt, ok
}

// ErrCHDisabled answers an algo=ch request on a service whose hierarchy
// was never built: call EnableCH first. No other algorithm stands in
// for it.
var ErrCHDisabled = errors.New("route: contraction hierarchy not enabled (EnableCH was never called)")

// routeSnap computes one route against snap, dispatching CH requests to
// the snapshot's index. The index, when present, was customized for the
// snapshot's exact costs when the snapshot was built — no freshness check
// is needed or possible to fail. A snapshot without an index answers
// ErrCHDisabled.
func (s *Service) routeSnap(ctx context.Context, snap *Snapshot, from, to graph.NodeID, opts core.Options) (core.Route, error) {
	if opts.Algorithm != core.CH {
		return snap.planner.RouteCtx(ctx, from, to, opts)
	}
	if snap.ch == nil {
		return core.Route{}, ErrCHDisabled
	}
	return s.chQuery(ctx, snap.ch, from, to)
}

// chQuery serves one request from a snapshot's hierarchy index, wrapping
// the query in a "kernel" span (the CH counterpart of the planner's)
// under which the index nests its search and unpack phases. It is the
// one place a ch.Result becomes a core.Route.
func (s *Service) chQuery(ctx context.Context, ix *ch.Index, from, to graph.NodeID) (core.Route, error) {
	ctx, sp := tracing.Start(ctx, "kernel")
	defer sp.End()
	sp.SetStr("algo", "ch")
	start := time.Now()
	res, err := ix.QueryCtx(ctx, from, to)
	if err != nil {
		return core.Route{}, search.FromContextErr(err)
	}
	s.chQuerySeconds.Observe(time.Since(start).Seconds())
	s.chQueries.Inc()
	s.chSettled.Add(uint64(res.Settled))
	sp.SetBool("found", res.Found)
	sp.SetInt("iterations", int64(res.Settled))
	sp.SetInt("expansions", int64(res.Settled))
	return core.Route{
		Found:     res.Found,
		Path:      res.Path,
		Cost:      res.Cost,
		Algorithm: core.CH,
		Trace: search.Trace{
			Iterations:  res.Settled,
			Expansions:  res.Settled,
			Relaxations: res.Relaxed,
		},
	}, nil
}

// ComputeDegraded answers a route request without running a search — the
// load-shedding escape hatch the admission layer uses when the server is
// saturated. It consults, in order: the route cache under the snapshot's
// cost generation (exact key only, no search, and no hit/miss counter
// bumps — degraded answers must not skew cache telemetry), then the
// snapshot's contraction-hierarchy index, whose per-query work is
// near-constant and far below any kernel's. It serves from snap, which
// the caller has loaded. It answers ErrCHDisabled when neither source
// can answer — the caller sheds the request for real.
//
// The CH query runs under ctx exactly as a normal CH read does: it shows
// up as a "kernel" span with its search and unpack phases, and a dead
// context stops it with the same typed lifecycle error. A cache hit, as
// in ComputeIn, is served whatever the context's state.
func (s *Service) ComputeDegraded(ctx context.Context, snap *Snapshot, from, to graph.NodeID, opts core.Options) (core.Route, error) {
	key := cacheKey{
		from: from, to: to,
		algo: opts.Algorithm, weight: opts.Weight, frontier: opts.Frontier,
		gen: snap.gen,
	}
	if rt, ok := s.cache.get(key); ok {
		return rt, nil
	}
	if snap.ch == nil {
		return core.Route{}, ErrCHDisabled
	}
	return s.chQuery(ctx, snap.ch, from, to)
}

// buildTopology runs the structural contraction — the expensive,
// once-per-service phase — as a "ch.topology" span.
func (s *Service) buildTopology(ctx context.Context, g *graph.Graph) (*ch.Topology, error) {
	_, sp := tracing.Start(ctx, "ch.topology")
	defer sp.End()
	start := time.Now()
	t, err := ch.BuildTopology(g, ch.Options{})
	if err != nil {
		return nil, err
	}
	s.chRebuildSeconds.Observe(time.Since(start).Seconds())
	s.chRebuilds.Inc()
	return t, nil
}

// customizeTopo re-prices topo's shortcuts for g's current costs — the
// millisecond "ch.customize" phase that runs inside every traffic
// mutator and every EnableCH.
func (s *Service) customizeTopo(ctx context.Context, topo *ch.Topology, g *graph.Graph) (*ch.Index, error) {
	_, sp := tracing.Start(ctx, "ch.customize")
	defer sp.End()
	start := time.Now()
	ix, err := topo.NewIndex(g)
	if err != nil {
		return nil, err
	}
	s.chCustomizeSeconds.Observe(time.Since(start).Seconds())
	s.chCustomizations.Inc()
	sp.SetInt("shortcuts", int64(ix.Shortcuts()))
	return ix, nil
}

// EnableCH readies the contraction hierarchy synchronously and publishes
// a snapshot carrying it; until it is called, algo=ch requests answer
// ErrCHDisabled. Servers call it once at startup. The first call pays the
// structural contraction; every later traffic mutation re-customizes as
// part of its publish, so calling EnableCH again costs one customization
// pass and only force-publishes a fresh snapshot outside the mutator
// paths. The build runs under writeMu, so a concurrent mutator waits for
// it and then customizes over the new topology.
func (s *Service) EnableCH() error {
	ctx := context.Background()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.snap.Load()
	if s.chTopo == nil {
		// base shares every snapshot's structure and lives as long as the
		// service, so the topology, which keeps the graph it was built
		// from, pins no retired snapshot's costs.
		t, err := s.buildTopology(ctx, s.base)
		if err != nil {
			return fmt.Errorf("route: building contraction hierarchy: %w", err)
		}
		s.chTopo = t
	}
	ix, err := s.customizeTopo(ctx, s.chTopo, cur.graph)
	if err != nil {
		return fmt.Errorf("route: customizing contraction hierarchy: %w", err)
	}
	s.snap.Store(newSnapshot(cur.graph, ix, cur.gen, cur.seq+1))
	return nil
}

// CHStats describes the contraction hierarchy's serving state.
type CHStats struct {
	// Ready reports whether the published snapshot carries an index — true
	// exactly when EnableCH has succeeded.
	Ready bool `json:"ready"`
	// Shortcuts is the shortcut-arc count of the current index.
	Shortcuts int `json:"shortcuts"`
	// Queries counts requests served by the hierarchy.
	Queries uint64 `json:"queries"`
	// Rebuilds counts completed structural topology builds — one, after
	// the first EnableCH — not metric refreshes.
	Rebuilds uint64 `json:"rebuilds"`
	// Customizations counts completed metric customizations: the
	// millisecond passes that keep the index fresh across cost mutations.
	Customizations uint64 `json:"customizations"`
}

// CHStats reports the hierarchy's serving state, read from the published
// snapshot and the same instruments /metrics exports. It takes no lock,
// so a stats scrape can never block behind a writer.
func (s *Service) CHStats() CHStats {
	st := CHStats{
		Queries:        s.chQueries.Value(),
		Rebuilds:       s.chRebuilds.Value(),
		Customizations: s.chCustomizations.Value(),
	}
	if ix := s.snap.Load().ch; ix != nil {
		st.Ready = true
		st.Shortcuts = ix.Shortcuts()
	}
	return st
}

// ComputeByName runs route computation between named landmarks. Name
// resolution uses the immutable graph structure, so the call shares
// ComputeCtx's cache.
func (s *Service) ComputeByName(from, to string, opts core.Options) (core.Route, error) {
	snap := s.snap.Load()
	f, ok := snap.graph.Lookup(from)
	if !ok {
		return core.Route{}, fmt.Errorf("route: unknown landmark %q", from)
	}
	t, ok := snap.graph.Lookup(to)
	if !ok {
		return core.Route{}, fmt.Errorf("route: unknown landmark %q", to)
	}
	return s.ComputeIn(context.Background(), snap, f, t, opts)
}

// Evaluation is the attribute set of a given route (the paper's route
// evaluation: "useful for selecting travel time by a familiar path").
type Evaluation struct {
	// Valid reports whether the node sequence is a path of the network.
	Valid bool
	// Hops is the number of road segments.
	Hops int
	// Distance is the geometric length (sum of straight-line segment
	// lengths).
	Distance float64
	// BaseCost is the route's cost under free-flow (pristine) edge costs.
	BaseCost float64
	// CurrentCost is the route's cost under live (congested) edge costs —
	// the travel-time attribute.
	CurrentCost float64
	// CongestionRatio is CurrentCost / BaseCost (1 = free flow).
	CongestionRatio float64
	// CongestedHops counts segments whose live cost exceeds base cost.
	CongestedHops int
}

// EvaluateIn computes the attributes of path under snap's costs. base is
// read-only after construction, so comparing it with the snapshot needs
// no coordination.
func (s *Service) EvaluateIn(snap *Snapshot, path graph.Path) (Evaluation, error) {
	cur := snap.graph
	ev := Evaluation{Hops: path.Len(), Valid: true}
	for i := 0; i+1 < len(path.Nodes); i++ {
		u, v := path.Nodes[i], path.Nodes[i+1]
		curCost, ok := cur.ArcCost(u, v)
		if !ok {
			return Evaluation{Hops: path.Len()}, fmt.Errorf("route: not a path of the network: %s", path)
		}
		ev.Distance += cur.Point(u).EuclideanDistance(cur.Point(v))
		baseCost, _ := s.base.ArcCost(u, v)
		ev.CurrentCost += curCost
		ev.BaseCost += baseCost
		if curCost > baseCost {
			ev.CongestedHops++
		}
	}
	if ev.BaseCost > 0 {
		ev.CongestionRatio = ev.CurrentCost / ev.BaseCost
	} else {
		ev.CongestionRatio = 1
	}
	return ev, nil
}

// Display renders the snapshot's network with the route overlaid: road
// nodes as dots, route nodes as 'o', endpoints as 'S' and 'D', landmarks
// by their names.
func (sn *Snapshot) Display(path graph.Path, width, height int) string {
	g := sn.graph
	var pts []asciichart.Point
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if g.OutDegree(u) == 0 {
			continue // isolated (lake) nodes are water, not roads
		}
		p := g.Point(u)
		pts = append(pts, asciichart.Point{X: p.X, Y: p.Y, Glyph: '.'})
	}
	for name, u := range g.NamedNodes() {
		p := g.Point(u)
		pts = append(pts, asciichart.Point{X: p.X, Y: p.Y, Glyph: name[0]})
	}
	for i, u := range path.Nodes {
		p := g.Point(u)
		glyph := byte('o')
		if i == 0 {
			glyph = 'S'
		} else if i == len(path.Nodes)-1 {
			glyph = 'D'
		}
		pts = append(pts, asciichart.Point{X: p.X, Y: p.Y, Glyph: glyph})
	}
	return asciichart.Map(pts, asciichart.Options{Width: width, Height: height})
}

// AlternatesCtx returns up to k loopless routes from from to to in
// increasing cost order under the snapshot's costs (Yen's algorithm) —
// the "offer the traveller a choice" feature. Yen's spur searches are A*
// under an exact potential, and one lifecycle polls ctx and counts their
// heap pops against one expansion budget for the whole request. The
// whole family runs against this one snapshot, so all k alternatives are
// priced under the same costs.
//
// Under an active trace the request shows up as a "kernel" span with
// algo=yen, the request's heap pops and its spur searches.
func (sn *Snapshot) AlternatesCtx(ctx context.Context, from, to graph.NodeID, k int) ([]core.Route, error) {
	ctx, sp := tracing.Start(ctx, "kernel")
	defer sp.End()
	sp.SetStr("algo", "yen")
	results, tr, err := search.KShortestCtx(ctx, sn.graph, from, to, k)
	sp.SetInt("pops", int64(tr.HeapPops))
	sp.SetInt("spurs", int64(tr.Iterations))
	if err != nil {
		return nil, err
	}
	out := make([]core.Route, 0, len(results))
	for _, r := range results {
		out = append(out, core.Route{
			Found:     true,
			Path:      r.Path,
			Cost:      r.Cost,
			Algorithm: core.Dijkstra,
		})
	}
	return out, nil
}

// ReachableCtx returns every node within the given travel budget of from,
// under the snapshot's costs, with the cost of reaching each — the
// isochrone query ("what can I reach in 15 minutes?"). The bounded
// Dijkstra polls ctx and aborts with a typed lifecycle error rather than
// returning a truncated (and therefore wrong) isochrone.
func (sn *Snapshot) ReachableCtx(ctx context.Context, from graph.NodeID, budget float64) (map[graph.NodeID]float64, error) {
	return search.WithinCtx(ctx, sn.graph, from, budget)
}

// ApplyRegionCongestionCtx scales every edge with both endpoints within
// radius of center by factor — a congested downtown at rush hour. It
// returns the number of (tail, head) pairs whose cost changed; parallel
// edges of one pair count once, and each keeps its own scaled cost. The
// whole region lands as one publish: one cost-generation bump, one cache
// invalidation, one customization pass. ctx carries the caller's trace,
// so the customization shows up as a span of the mutating request.
func (s *Service) ApplyRegionCongestionCtx(ctx context.Context, center graph.Point, radius, factor float64) (int, error) {
	if !(factor > 0) {
		return 0, fmt.Errorf("route: congestion factor %v must be positive", factor)
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.snap.Load()
	var changes []graph.EdgeCostChange
	for _, e := range cur.graph.Edges() {
		// The scan precedes any mutation, so honouring a cancel here
		// keeps the batch atomic: either every regional edge changes or
		// none does.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if cur.graph.Point(e.Tail).EuclideanDistance(center) <= radius &&
			cur.graph.Point(e.Head).EuclideanDistance(center) <= radius &&
			!pairListed(changes, e) {
			changes = append(changes, graph.EdgeCostChange{Tail: e.Tail, Head: e.Head, Cost: factor, Scale: true})
		}
	}
	return s.mutateLocked(ctx, cur, changes)
}

// pairListed reports whether changes already holds an entry for e's
// (tail, head) pair. A Scale entry covers every parallel edge of its
// pair, so a second one would scale them twice. Edges() is tail-major, so
// only the trailing entries with e's tail need checking.
func pairListed(changes []graph.EdgeCostChange, e graph.Edge) bool {
	for i := len(changes) - 1; i >= 0 && changes[i].Tail == e.Tail; i-- {
		if changes[i].Head == e.Head {
			return true
		}
	}
	return false
}

// ApplyTrafficBatchCtx applies a burst of edge-cost changes as one
// traffic event — the entry point for traffic-feed streams and the one
// way a caller changes individual edge costs. However many edges the
// batch touches, the service pays one publish: one cost-generation bump,
// one route-cache invalidation, and one customization pass; applying the
// same changes one edge at a time would pay all three per edge. ctx
// carries the caller's trace, so a traced POST /v1/traffic/batch shows
// the customization pass it paid for.
func (s *Service) ApplyTrafficBatchCtx(ctx context.Context, changes []graph.EdgeCostChange) (int, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	affected, err := s.mutateLocked(ctx, s.snap.Load(), changes)
	if affected > 0 {
		s.trafficBatches.Inc()
	}
	return affected, err
}

// ResetTrafficCtx restores every edge to its free-flow cost by
// publishing a clone of the pristine base graph. It always publishes,
// even when costs were already pristine — a reset is an explicit traffic
// event and bumps the generation like any other.
func (s *Service) ResetTrafficCtx(ctx context.Context) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.publishLocked(ctx, s.snap.Load(), s.base.Clone())
}

package route

import (
	"context"
	"strconv"
	"time"

	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/graph"
)

// Snapshot is the immutable read view of the road network that the
// Service publishes through one atomic pointer. It bundles everything a
// query needs — the graph at a fixed set of edge costs, a Planner bound
// to it, the contraction-hierarchy metric customized for exactly those
// costs, and the snapshot's identity — so a reader loads the pointer
// once and then never coordinates with mutators at all: no lock, no
// version re-check, no torn state. Mutators never touch a published
// Snapshot; they build the next one off to the side and swap the
// pointer (see Service.snap).
//
// Invariant: ch, when non-nil, was customized for graph's exact costs,
// because both are frozen into the same publish. The CH read path
// therefore needs no freshness check. ch is nil exactly when EnableCH
// has not run, and a CH request then answers ErrCHDisabled.
//
//atis:immutable
type Snapshot struct {
	graph   *graph.Graph
	planner *core.Planner
	ch      *ch.Index // nil until EnableCH

	// gen is the cost generation: it increases by one with every traffic
	// mutation and keys the route cache, so entries priced under retired
	// costs can never match; the publish that bumps it also empties the
	// cache (routeCache.retire).
	gen uint64
	// seq is the publish sequence: it increases by one with every
	// snapshot swap, including cost-neutral ones (EnableCH installing an
	// index). It is the identity a gateway uses for snapshot-version-
	// aware fan-out (X-ATIS-Snapshot, GET /v1/snapshot).
	seq uint64
	// seqText is seq in decimal, rendered once here rather than on every
	// response that names the snapshot.
	seqText     string
	publishedAt time.Time
}

// newSnapshot freezes g (plus its customized index, which may be nil)
// into a publishable Snapshot. Callers pass a graph no other goroutine
// can still mutate: a fresh clone, or the graph of an already-published
// snapshot (immutable by this type's contract).
func newSnapshot(g *graph.Graph, ix *ch.Index, gen, seq uint64) *Snapshot {
	return &Snapshot{
		graph:       g,
		planner:     core.New(g),
		ch:          ix,
		gen:         gen,
		seq:         seq,
		seqText:     strconv.FormatUint(seq, 10),
		publishedAt: time.Now(),
	}
}

// Graph returns the snapshot's road network. Its edge costs are frozen;
// treat it as read-only.
//
//atis:hotpath
func (sn *Snapshot) Graph() *graph.Graph { return sn.graph }

// Reverse returns the reverse view of the snapshot's graph, built
// lazily on first use and cached inside the graph. The snapshot's costs
// never change, so the cached reverse stays valid for the snapshot's
// whole lifetime; concurrent first callers may race to build it, and
// either result is correct.
func (sn *Snapshot) Reverse() *graph.Graph { return sn.graph.ReverseView() }

// CH returns the contraction-hierarchy index customized for this
// snapshot's costs, or nil when EnableCH has not run.
//
//atis:hotpath
func (sn *Snapshot) CH() *ch.Index { return sn.ch }

// CostGeneration is the snapshot's cost generation — bumped by every
// traffic mutation, stable across cost-neutral publishes.
//
//atis:hotpath
func (sn *Snapshot) CostGeneration() uint64 { return sn.gen }

// Generation is the snapshot's publish sequence number — bumped by
// every swap, the identity clients see as X-ATIS-Snapshot.
//
//atis:hotpath
func (sn *Snapshot) Generation() uint64 { return sn.seq }

// GenerationText is Generation in decimal, the X-ATIS-Snapshot value.
//
//atis:hotpath
func (sn *Snapshot) GenerationText() string { return sn.seqText }

// PublishedAt is when the snapshot was swapped in.
func (sn *Snapshot) PublishedAt() time.Time { return sn.publishedAt }

// Snapshot returns the currently published read view. Queries load it
// once and serve entirely from it; two loads may return different
// snapshots if a mutator published in between, which is exactly the
// consistency the service promises (each request sees one complete
// world, not necessarily the same world as the next request).
//
//atis:hotpath
func (s *Service) Snapshot() *Snapshot { return s.snap.Load() }

// mutateLocked is the write path the batch and region mutators share,
// with writeMu held and cur the published snapshot: apply changes to a
// clone of cur's graph as one graph.ApplyBatch and, when an entry changed
// a cost, publish the clone. A rejected batch, or one that changes no
// cost, publishes nothing. The previous snapshot is untouched
// throughout; readers that loaded it keep a complete, internally
// consistent view until they finish.
func (s *Service) mutateLocked(ctx context.Context, cur *Snapshot, changes []graph.EdgeCostChange) (int, error) {
	if len(changes) == 0 {
		return 0, nil
	}
	next := cur.graph.Clone()
	n, err := next.ApplyBatch(changes)
	if err != nil {
		return 0, err
	}
	if n > 0 {
		s.publishLocked(ctx, cur, next)
	}
	return n, nil
}

// publishLocked swaps in next, a graph no other goroutine holds, as the
// successor of cur, with writeMu held: count the traffic event,
// re-customize the hierarchy's metric for next's costs (with a topology
// in hand this is the entire price of keeping CH fresh — one bottom-up
// triangle pass, no contraction), and bump the cost generation.
//
// The route cache retires cur's generation after the customization, so
// cur's readers keep their hits until the last moment, and before the
// Store, so no reader can have loaded the new snapshot yet: every entry
// put from then on either carries the new generation or is refused.
func (s *Service) publishLocked(ctx context.Context, cur *Snapshot, next *graph.Graph) {
	s.trafficUpdates.Inc()
	sn := newSnapshot(next, s.customizeFor(ctx, next), cur.gen+1, cur.seq+1)
	s.cache.retire(sn.gen)
	s.snap.Store(sn)
}

// customizeFor re-derives the hierarchy's metric for g's costs, or
// returns nil when EnableCH has not built a topology — the published
// snapshot then answers CH requests with ErrCHDisabled.
func (s *Service) customizeFor(ctx context.Context, g *graph.Graph) *ch.Index {
	if s.chTopo == nil {
		return nil
	}
	ix, err := s.customizeTopo(ctx, s.chTopo, g)
	if err != nil {
		return nil // unreachable: g shares the topology's structure
	}
	return ix
}

package route

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/search"
)

// Pair is one origin–destination request of a batch.
type Pair struct {
	From, To graph.NodeID
}

// BatchResult is the outcome for one pair of a batch; Err is per-pair so a
// single bad endpoint does not fail the rest of the batch.
type BatchResult struct {
	Route core.Route
	Err   error
}

// ComputeBatchCtx computes a route for every pair under opts, fanning the
// pairs across a GOMAXPROCS-bounded worker pool. Results are positionally
// aligned with pairs. Each worker query goes through the same cached path
// as ComputeCtx, so the batch both profits from and feeds the route cache —
// a fleet of vehicles asking for overlapping commutes is the paper's
// "millions of users" workload in miniature. Workers claim pairs from a
// shared atomic counter, so skewed per-pair costs stay balanced.
//
// Workers check ctx before claiming each pair, so a dead context stops
// the fan-out at pair granularity; the pair in flight when the context
// dies is cut short by its own kernel's ctx poll. Unprocessed pairs carry
// the context's lifecycle error so callers can tell "not computed" from
// "no route".
//
// The snapshot is loaded once for the whole batch: every pair is priced
// under the same costs, so a fleet query straddling a traffic mutation
// returns one consistent answer set instead of a mix of generations.
func (s *Service) ComputeBatchCtx(ctx context.Context, pairs []Pair, opts core.Options) []BatchResult {
	return s.ComputeBatchIn(ctx, s.snap.Load(), pairs, opts)
}

// ComputeBatchIn is ComputeBatchCtx pinned to one already-loaded
// snapshot, for a caller that names the batch's world, as an HTTP batch
// request does in its X-ATIS-Snapshot header.
func (s *Service) ComputeBatchIn(ctx context.Context, snap *Snapshot, pairs []Pair, opts core.Options) []BatchResult {
	out := make([]BatchResult, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	s.batchRequests.Inc()
	s.batchPairs.Add(uint64(len(pairs)))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pairs) {
		workers = len(pairs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				if err := ctx.Err(); err != nil {
					out[i] = BatchResult{Err: search.FromContextErr(err)}
					continue
				}
				rt, err := s.ComputeIn(ctx, snap, pairs[i].From, pairs[i].To, opts)
				out[i] = BatchResult{Route: rt, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/search"
)

// relTol is the oracle's relative cost tolerance: the server and the
// oracle may sum the same arc costs in a different order.
const relTol = 1e-9

func costsAgree(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// check is one route answer awaiting the oracle, with the window of cost
// generations that may have served it: generation k is the map after the
// k-th posted traffic batch.
type check struct {
	p      pair
	a      answer
	nodes  []int32
	lo, hi int
	failed *bool // the request's failure flag, set on a wrong answer
}

// timeline is the sequence of traffic batches the benchmark posted, with
// their send and acknowledgement times. Batches go out one at a time on
// one connection, so both time slices are ascending.
type timeline struct {
	batches    [][]graph.EdgeCostChange
	sent, done []int64
}

// window returns the generations a read sent at sent and answered at done
// may have been computed in: every batch acknowledged before the send is
// surely installed, and none sent after the answer can be.
func (tl *timeline) window(sent, done int64) (lo, hi int) {
	lo = sort.Search(len(tl.done), func(i int) bool { return tl.done[i] > sent })
	hi = sort.Search(len(tl.sent), func(i int) bool { return tl.sent[i] > done })
	return lo, hi
}

// verifyPath checks that nodes walk existing arcs of g from p.from to
// p.to and that their summed cost is the reported cost.
func verifyPath(g *graph.Graph, p pair, a answer, nodes []int32) error {
	if len(nodes) == 0 || graph.NodeID(nodes[0]) != p.from || graph.NodeID(nodes[len(nodes)-1]) != p.to {
		return fmt.Errorf("route %d→%d: path does not join the endpoints", p.from, p.to)
	}
	sum := 0.0
	for i := 1; i < len(nodes); i++ {
		c, ok := g.ArcCost(graph.NodeID(nodes[i-1]), graph.NodeID(nodes[i]))
		if !ok {
			return fmt.Errorf("route %d→%d: no arc %d→%d", p.from, p.to, nodes[i-1], nodes[i])
		}
		sum += c
	}
	if !costsAgree(sum, a.cost) {
		return fmt.Errorf("route %d→%d: path costs %.12g, reported %.12g", p.from, p.to, sum, a.cost)
	}
	return nil
}

// verifyAnswer checks one answer against g and the oracle cost want.
func verifyAnswer(g *graph.Graph, c *check, want float64) error {
	if c.a.errored {
		return fmt.Errorf("route %d→%d: the batch item carried an error", c.p.from, c.p.to)
	}
	if !c.a.found || math.IsInf(want, 1) {
		if c.a.found || !math.IsInf(want, 1) {
			return fmt.Errorf("route %d→%d: found=%v, oracle cost %g", c.p.from, c.p.to, c.a.found, want)
		}
		return nil
	}
	if err := verifyPath(g, c.p, c.a, c.nodes); err != nil {
		return err
	}
	if !costsAgree(c.a.cost, want) {
		return fmt.Errorf("route %d→%d: cost %.12g, optimum %.12g", c.p.from, c.p.to, c.a.cost, want)
	}
	return nil
}

// verifyStatic checks answers served while the map held its generated
// costs. Answers are grouped by origin so one single-source Dijkstra
// (search.SingleSource, the repository's own oracle) covers every answer
// from that origin.
//
// Every wrong answer sets its request's failure flag; the first error is
// returned.
func verifyStatic(g *graph.Graph, checks []check) (first error) {
	sort.Slice(checks, func(i, j int) bool { return checks[i].p.from < checks[j].p.from })
	var dist []float64
	for i := range checks {
		c := &checks[i]
		if i == 0 || c.p.from != checks[i-1].p.from {
			dist, _ = search.SingleSource(g, c.p.from)
		}
		if err := verifyAnswer(g, c, dist[c.p.to]); err != nil {
			*c.failed = true
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// verifyLive checks answers served while traffic batches were landing:
// each must be optimal, with a path that prices to its cost, in one of
// the generations of its window. The oracle replays the posted batches on
// its own copy of the map and runs search.Dijkstra per generation.
func verifyLive(base *graph.Graph, tl *timeline, checks []check) (first error) {
	sort.Slice(checks, func(i, j int) bool { return checks[i].lo < checks[j].lo })
	gens := map[int]*graph.Graph{0: base}
	top := 0
	graphAt := func(k int) (*graph.Graph, error) {
		for top < k {
			next := gens[top].Clone()
			if _, err := next.ApplyBatch(tl.batches[top]); err != nil {
				return nil, err
			}
			top++
			gens[top] = next
		}
		return gens[k], nil
	}
	type key struct {
		gen int
		p   pair
	}
	memo := make(map[key]float64)
	evicted := 0
	for i := range checks {
		c := &checks[i]
		for ; evicted < c.lo && evicted < top; evicted++ {
			delete(gens, evicted)
		}
		var err error
		for k := c.lo; k <= c.hi; k++ {
			g, gerr := graphAt(k)
			if gerr != nil {
				return gerr
			}
			want, ok := memo[key{k, c.p}]
			if !ok {
				res, derr := search.Dijkstra(g, c.p.from, c.p.to)
				if derr != nil {
					return derr
				}
				want = res.Cost
				memo[key{k, c.p}] = want
			}
			if err = verifyAnswer(g, c, want); err == nil {
				break
			}
		}
		if err != nil {
			*c.failed = true
			if first == nil {
				first = fmt.Errorf("%w (no generation in %d..%d matches)", err, c.lo, c.hi)
			}
		}
	}
	return first
}

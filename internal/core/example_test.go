package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gridgen"
)

// ExamplePlanner shows the minimal routing flow: build a map, wrap it in a
// planner, compute a route.
func ExamplePlanner() {
	g := gridgen.MustGenerate(gridgen.Config{K: 5, Model: gridgen.Uniform})
	planner := core.New(g)
	from, to := gridgen.Pair(5, gridgen.Diagonal, 0)

	route, err := planner.RouteCtx(context.Background(), from, to, core.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("found=%v cost=%.0f segments=%d\n", route.Found, route.Cost, route.Path.Len())
	// Output: found=true cost=8 segments=8
}

// ExamplePlanner_algorithms compares the paper's algorithm classes on the
// same pair: A* explores the least, Iterative the whole graph.
func ExamplePlanner_algorithms() {
	g := gridgen.MustGenerate(gridgen.Config{K: 10, Model: gridgen.Uniform})
	planner := core.New(g)
	from, to := gridgen.Pair(10, gridgen.Horizontal, 0)

	for _, algo := range []core.Algorithm{core.AStarManhattan, core.Dijkstra, core.Iterative} {
		r, err := planner.RouteCtx(context.Background(), from, to, core.Options{Algorithm: algo})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-16s cost=%.0f iterations=%d\n", algo, r.Cost, r.Trace.Iterations)
	}
	// Output:
	// astar-manhattan  cost=9 iterations=9
	// dijkstra         cost=9 iterations=45
	// iterative        cost=9 iterations=19
}

// ExampleParseAlgorithm resolves user-facing algorithm names.
func ExampleParseAlgorithm() {
	a, err := core.ParseAlgorithm("dijkstra")
	fmt.Println(a, err)
	// Output: dijkstra <nil>
}

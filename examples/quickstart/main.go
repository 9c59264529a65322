// Quickstart: build a small road grid, plan a route with the default
// algorithm (A* with the euclidean estimator), and print it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gridgen"
)

func main() {
	// A 10×10 street grid with mildly varying travel times.
	g, err := gridgen.Generate(gridgen.Config{
		K:     10,
		Model: gridgen.Variance,
		Seed:  42,
	})
	if err != nil {
		log.Fatal(err)
	}

	planner := core.New(g)

	// Route along the bottom of the map: a short path relative to the
	// graph's diameter, the regime where the paper shows estimator-based
	// search shines.
	from, to := gridgen.Pair(10, gridgen.Horizontal, 0)
	route, err := planner.RouteCtx(context.Background(), from, to, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if !route.Found {
		log.Fatal("no route")
	}

	fmt.Printf("found a route with %d segments, cost %.2f\n", route.Path.Len(), route.Cost)
	fmt.Printf("explored %d nodes to find it (the grid has %d)\n",
		route.Trace.Iterations, g.NumNodes())
	fmt.Printf("path: %s\n", route.Path)

	// Dijkstra finds the same route but explores more of the graph — the
	// paper's core observation about estimator functions.
	dij, err := planner.RouteCtx(context.Background(), from, to, core.Options{Algorithm: core.Dijkstra})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dijkstra explored %d nodes for the same %.2f-cost route\n",
		dij.Trace.Iterations, dij.Cost)
}

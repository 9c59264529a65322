// Fastest: route by travel time instead of distance. The paper's
// Minneapolis records carried average speed and road type per segment; this
// example generates the map under the travel-time metric, routes with the
// ALT landmark estimator (admissible on any metric, unlike the geometric
// estimators), shows how the fastest route trades distance for freeway
// mileage, and lists alternate routes.
//
//	go run ./examples/fastest
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/alt"
	"repro/internal/mpls"
	"repro/internal/search"
)

func main() {
	// One map, two metrics: same roads, different edge costs.
	gDist, atlas, err := mpls.GenerateWithAtlas(mpls.Config{Metric: mpls.Distance})
	if err != nil {
		log.Fatal(err)
	}
	gTime, _, err := mpls.GenerateWithAtlas(mpls.Config{Metric: mpls.TravelTime})
	if err != nil {
		log.Fatal(err)
	}

	from, _ := gTime.Lookup("C")
	to, _ := gTime.Lookup("D")

	// ALT preprocessing: four landmarks, two Dijkstra runs each.
	landmarks, err := alt.SelectLandmarks(gTime, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	tables, err := alt.Preprocess(gTime, landmarks)
	if err != nil {
		log.Fatal(err)
	}

	fastest, err := search.AStarCtx(context.Background(), gTime, from, to, tables.Estimator())
	if err != nil {
		log.Fatal(err)
	}
	shortest, err := search.Dijkstra(gDist, from, to)
	if err != nil {
		log.Fatal(err)
	}

	describe := func(name string, path search.Result) {
		var miles, minutes float64
		classMiles := map[mpls.RoadClass]float64{}
		for i := 0; i+1 < len(path.Path.Nodes); i++ {
			seg, ok := atlas.Segment(path.Path.Nodes[i], path.Path.Nodes[i+1])
			if !ok {
				log.Fatalf("route uses unknown segment")
			}
			miles += seg.Distance
			minutes += seg.TravelMinutes()
			classMiles[seg.Class] += seg.Distance
		}
		fmt.Printf("%s: %.1f miles, %.1f minutes free-flow\n", name, miles, minutes)
		for _, c := range []mpls.RoadClass{mpls.Freeway, mpls.Highway, mpls.Local} {
			fmt.Printf("   %-8s %5.1f miles\n", c, classMiles[c])
		}
	}

	fmt.Printf("commute C -> D (ALT with %d landmarks explored %d nodes)\n\n", len(landmarks), fastest.Trace.Iterations)
	describe("fastest route (travel-time metric)", fastest)
	fmt.Println()
	describe("shortest route (distance metric)  ", shortest)

	// Alternate fastest routes for the traveller to choose among.
	alts, _, err := search.KShortestCtx(context.Background(), gTime, from, to, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nalternate routes by travel time:")
	for i, a := range alts {
		fmt.Printf("  #%d: %.1f minutes over %d segments\n", i+1, a.Cost, a.Path.Len())
	}
}

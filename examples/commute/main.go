// Commute: the ATIS scenario from the paper's introduction — static route
// selection coupled with real-time traffic information. We plan a morning
// commute across the synthetic Minneapolis map, rush hour congests
// downtown, and the service re-routes around it and quantifies the saving.
//
//	go run ./examples/commute
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpls"
	"repro/internal/route"
)

func main() {
	g, err := mpls.Generate(mpls.Config{})
	if err != nil {
		log.Fatal(err)
	}
	svc := route.NewService(g)

	// The free-flow commute: C (southwest suburbs) to D (northeast, across
	// the river).
	morning, err := svc.ComputeByName("C", "D", core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ev, err := svc.Evaluate(morning.Path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("free-flow commute C -> D: %d segments, travel cost %.2f (distance %.2f)\n",
		ev.Hops, ev.CurrentCost, ev.Distance)

	// Rush hour: downtown congests to 3× travel time.
	affected, err := svc.ApplyRegionCongestionCtx(context.Background(), graph.Point{X: 16, Y: 16}, 5, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrush hour: %d downtown road segments congested to 3x\n", affected)

	// The old route is now painful…
	evOld, err := svc.Evaluate(morning.Path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the morning route now costs %.2f (congestion ratio %.2f, %d congested segments)\n",
		evOld.CurrentCost, evOld.CongestionRatio, evOld.CongestedHops)

	// …so recompute with live costs.
	rerouted, err := svc.ComputeByName("C", "D", core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	evNew, err := svc.Evaluate(rerouted.Path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-routed: %d segments, travel cost %.2f — saves %.2f over sitting in traffic\n",
		evNew.Hops, evNew.CurrentCost, evOld.CurrentCost-evNew.CurrentCost)

	// Show the detour on the map.
	fmt.Println("\nre-routed commute (S = start, D = destination, o = route):")
	fmt.Print(svc.Snapshot().Display(rerouted.Path, 80, 40))

	// Turn-by-turn guidance for the detour.
	ins, err := svc.Snapshot().Directions(rerouted.Path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nguidance:")
	fmt.Print(route.FormatDirections(ins))

	// Evening: congestion clears.
	svc.ResetTrafficCtx(context.Background())
	evening, err := svc.ComputeByName("D", "C", core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nevening return D -> C at free flow: cost %.2f\n", evening.Cost)
}

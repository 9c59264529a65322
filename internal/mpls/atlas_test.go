package mpls

import (
	"context"
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/search"
)

func TestAtlasCoversEveryEdge(t *testing.T) {
	g, atlas, err := GenerateWithAtlas(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if atlas.NumSegments() != g.NumEdges() {
		t.Errorf("atlas has %d records for %d edges", atlas.NumSegments(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		seg, ok := atlas.Segment(e.Tail, e.Head)
		if !ok {
			t.Fatalf("edge (%d,%d) has no attribute record", e.Tail, e.Head)
		}
		if seg.Distance <= 0 || seg.SpeedMPH <= 0 {
			t.Fatalf("degenerate segment %+v", seg)
		}
		if seg.Occupancy < 0 || seg.Occupancy >= 1 {
			t.Fatalf("occupancy %v out of [0,1)", seg.Occupancy)
		}
		if seg.SpeedMPH != seg.Class.SpeedMPH() {
			t.Fatalf("segment speed %v disagrees with class %v", seg.SpeedMPH, seg.Class)
		}
	}
}

func TestAtlasClassMix(t *testing.T) {
	_, atlas, err := GenerateWithAtlas(Config{})
	if err != nil {
		t.Fatal(err)
	}
	counts := atlas.ClassCounts()
	if counts[Freeway] < 30 {
		t.Errorf("only %d freeway edges", counts[Freeway])
	}
	if counts[Highway] < 200 {
		t.Errorf("only %d highway edges", counts[Highway])
	}
	if counts[Local] < 1000 {
		t.Errorf("only %d local edges", counts[Local])
	}
}

func TestDistanceMetricUnchangedByAtlas(t *testing.T) {
	// Distance-metric generation must be identical to what Generate always
	// produced (Config zero value).
	g1 := MustGenerate(Config{})
	g2, _, err := GenerateWithAtlas(Config{Metric: Distance})
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatal("edge counts differ")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

func TestTravelTimeCosts(t *testing.T) {
	g, atlas, err := GenerateWithAtlas(Config{Metric: TravelTime})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		seg, ok := atlas.Segment(e.Tail, e.Head)
		if !ok {
			t.Fatal("missing segment")
		}
		want := seg.Distance / seg.SpeedMPH * 60
		if math.Abs(e.Cost-want) > 1e-9 {
			t.Fatalf("edge (%d,%d): cost %v, want %v minutes", e.Tail, e.Head, e.Cost, want)
		}
	}
}

func TestTravelTimeRoutePrefersFastRoads(t *testing.T) {
	gd, atlasD, err := GenerateWithAtlas(Config{Metric: Distance})
	if err != nil {
		t.Fatal(err)
	}
	gt, atlasT, err := GenerateWithAtlas(Config{Metric: TravelTime})
	if err != nil {
		t.Fatal(err)
	}

	share := func(res search.Result, atlas *Atlas) float64 {
		fast, total := 0, 0
		for i := 0; i+1 < len(res.Path.Nodes); i++ {
			seg, ok := atlas.Segment(res.Path.Nodes[i], res.Path.Nodes[i+1])
			if !ok {
				t.Fatal("route uses unknown segment")
			}
			total++
			if seg.Class != Local {
				fast++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(fast) / float64(total)
	}

	a, _ := gd.Lookup("C")
	bNode, _ := gd.Lookup("D")
	distRoute, err := search.Dijkstra(gd, a, bNode)
	if err != nil || !distRoute.Found {
		t.Fatalf("distance route: %v", err)
	}
	timeRoute, err := search.Dijkstra(gt, a, bNode)
	if err != nil || !timeRoute.Found {
		t.Fatalf("time route: %v", err)
	}
	if share(timeRoute, atlasT) <= share(distRoute, atlasD) {
		t.Errorf("travel-time route uses %.0f%% fast roads, distance route %.0f%%: fast roads should attract the time metric",
			share(timeRoute, atlasT)*100, share(distRoute, atlasD)*100)
	}
}

// On the travel-time metric, euclidean distance scaled by the top speed
// (minutes per mile at 55 mph) is an admissible estimator; raw euclidean
// (implicitly assuming 60 minutes per mile) would overestimate on freeways.
func TestTravelTimeAdmissibleEstimator(t *testing.T) {
	g, _, err := GenerateWithAtlas(Config{Metric: TravelTime})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := g.Lookup("D")
	minutesPerMile := 60.0 / Freeway.SpeedMPH()
	est := estimator.Scaled(estimator.Euclidean(), minutesPerMile)
	if v := search.VerifyAdmissible(g, est, d, 1e-9); len(v) != 0 {
		t.Errorf("speed-scaled euclidean inadmissible on travel time: %v", v[0])
	}
	// And A* with it is optimal.
	s, _ := g.Lookup("C")
	dij, _ := search.Dijkstra(g, s, d)
	ast, err := search.AStarCtx(context.Background(), g, s, d, est)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ast.Cost-dij.Cost) > 1e-9 {
		t.Errorf("A* %v != optimal %v", ast.Cost, dij.Cost)
	}
}

func TestMetricAndClassStrings(t *testing.T) {
	if Distance.String() != "distance" || TravelTime.String() != "travel-time" {
		t.Error("metric names")
	}
	if Metric(9).String() != "Metric(9)" {
		t.Error("unknown metric name")
	}
	if Local.String() != "local" || Highway.String() != "highway" || Freeway.String() != "freeway" {
		t.Error("class names")
	}
	if RoadClass(9).String() != "RoadClass(9)" {
		t.Error("unknown class name")
	}
	if _, _, err := GenerateWithAtlas(Config{Metric: Metric(9)}); err == nil {
		t.Error("unknown metric accepted")
	}
}

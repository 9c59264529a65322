package graph

import "testing"

// buildTriangle returns a small directed graph for reverse-cache tests.
func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3, 3)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddNode(0, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 0, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReverseViewCachesUntilCostChange(t *testing.T) {
	g := buildTriangle(t)

	r1 := g.ReverseView()
	r2 := g.ReverseView()
	if r1 != r2 {
		t.Fatal("ReverseView rebuilt despite unchanged costs")
	}
	if c, ok := r1.ArcCost(1, 0); !ok || c != 1 {
		t.Fatalf("reverse edge (1,0) cost = %v, %v; want 1, true", c, ok)
	}

	if _, err := g.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 1, Cost: 5}}); err != nil {
		t.Fatal(err)
	}
	r3 := g.ReverseView()
	if r3 == r1 {
		t.Fatal("ReverseView served a stale reverse after a cost mutation")
	}
	if c, ok := r3.ArcCost(1, 0); !ok || c != 5 {
		t.Fatalf("post-mutation reverse edge (1,0) cost = %v, %v; want 5, true", c, ok)
	}
	if r4 := g.ReverseView(); r4 != r3 {
		t.Fatal("ReverseView rebuilt again without a mutation")
	}

	// A scale entry changes a cost too; an entry matching no edge does not.
	if _, err := g.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 1, Cost: 2, Scale: true}}); err != nil {
		t.Fatal(err)
	}
	r5 := g.ReverseView()
	if r5 == r3 {
		t.Fatal("ReverseView served a stale reverse after a scale entry")
	}
	if n, err := g.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 2, Cost: 9}}); err != nil || n != 0 {
		t.Fatalf("set (0,2) = %d, %v; want 0, nil", n, err)
	}
	if g.ReverseView() != r5 {
		t.Fatal("ReverseView rebuilt after a batch that matched no edge")
	}
}

func TestCloneDoesNotShareReverseCache(t *testing.T) {
	g := buildTriangle(t)
	r := g.ReverseView()
	c := g.Clone()
	if cr := c.ReverseView(); cr == r {
		t.Fatal("clone shares the original's cached reverse")
	}
	// Mutating the clone must not disturb the original's cache.
	if _, err := c.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 1, Cost: 7}}); err != nil {
		t.Fatal(err)
	}
	if g.ReverseView() != r {
		t.Fatal("mutating a clone invalidated the original's reverse cache")
	}
}

package tracing

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	ctx, trace := tr.StartRequest(context.Background(), "req", in)
	if trace == nil {
		t.Fatal("enabled tracer returned nil trace")
	}
	if got := trace.ID(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id not ingested from traceparent: %q", got)
	}
	if trace.upstream != "00f067aa0ba902b7" {
		t.Fatalf("upstream parent id = %q", trace.upstream)
	}
	out := trace.Traceparent()
	gotID, gotParent, ok := ParseTraceparent(out)
	if !ok {
		t.Fatalf("echoed traceparent does not re-parse: %q", out)
	}
	if gotID != trace.ID() {
		t.Fatalf("echo trace id = %q, want %q", gotID, trace.ID())
	}
	if gotParent != trace.rootSpanID {
		t.Fatalf("echo parent id = %q, want root span %q", gotParent, trace.rootSpanID)
	}
	if !strings.HasSuffix(out, "-01") {
		t.Fatalf("sampled trace must echo flags 01: %q", out)
	}
	_ = ctx
}

func TestTraceparentMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-short-bad-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // version ff invalid
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero parent
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",  // non-hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7_01",  // wrong separators
		"000-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // wrong length
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
	tr := New(Config{SampleRate: 1})
	_, trace := tr.StartRequest(context.Background(), "req", "garbage")
	if trace == nil || len(trace.ID()) != 32 {
		t.Fatalf("malformed header must mint a fresh 32-hex trace id, got %+v", trace)
	}
}

func TestSamplingDeterministic(t *testing.T) {
	tr := New(Config{SampleRate: 0.5})
	id := "4bf92f3577b34da6a3ce929d0e0e4736"
	first := tr.sampled(id)
	for i := 0; i < 100; i++ {
		if tr.sampled(id) != first {
			t.Fatal("sampling decision changed for the same trace id")
		}
	}
	// Rate 0 and 1 are exact, not probabilistic.
	all, none := New(Config{SampleRate: 1}), New(Config{SampleRate: 0.0, SlowThreshold: time.Hour})
	hit := 0
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("%032x", i+1)
		if !all.sampled(id) {
			t.Fatal("rate 1 must sample every id")
		}
		if none.sampled(id) {
			t.Fatal("rate 0 must sample no id")
		}
		if tr.sampled(id) {
			hit++
		}
	}
	// The hash spreads ids roughly uniformly; 0.5 over 1000 ids should
	// land well inside [350, 650].
	if hit < 350 || hit > 650 {
		t.Fatalf("rate 0.5 sampled %d/1000 ids — hash badly skewed", hit)
	}
}

func TestSlowCaptureRegardlessOfSampling(t *testing.T) {
	// Sample rate 0: head sampling never keeps anything, but a trace
	// past the slow threshold must still be captured.
	tr := New(Config{SampleRate: 0, SlowThreshold: time.Nanosecond})
	ctx, trace := tr.StartRequest(context.Background(), "req", "")
	if trace == nil {
		t.Fatal("slow-threshold-only tracer must be enabled")
	}
	_, sp := Start(ctx, "child")
	sp.SetStr("k", "v")
	sp.End()
	time.Sleep(time.Millisecond)
	if !tr.Finish(trace) {
		t.Fatal("slow trace not captured")
	}
	snap, ok := tr.Get(trace.ID())
	if !ok {
		t.Fatal("slow trace not retrievable by id")
	}
	if !snap.Slow || snap.Sampled {
		t.Fatalf("snapshot flags = slow:%v sampled:%v, want slow only", snap.Slow, snap.Sampled)
	}
	if len(snap.Root.Children) != 1 || snap.Root.Children[0].Name != "child" {
		t.Fatalf("span tree lost the child: %+v", snap.Root)
	}
	if snap.Root.Children[0].Attrs["k"] != "v" {
		t.Fatalf("child attrs = %+v", snap.Root.Children[0].Attrs)
	}
	if got := tr.Slowest(10); len(got) != 1 {
		t.Fatalf("Slowest = %d traces, want 1", len(got))
	}
	if got := tr.Recent(10); len(got) != 0 {
		t.Fatalf("Recent = %d traces, want 0 at sample rate 0", len(got))
	}
}

func TestFastSampledTraceNotSlow(t *testing.T) {
	tr := New(Config{SampleRate: 1, SlowThreshold: time.Hour})
	_, trace := tr.StartRequest(context.Background(), "req", "")
	if !tr.Finish(trace) {
		t.Fatal("sampled trace not captured")
	}
	snap, ok := tr.Get(trace.ID())
	if !ok || snap.Slow {
		t.Fatalf("fast trace: ok=%v slow=%v, want captured and not slow", ok, snap.Slow)
	}
	if len(tr.Slowest(10)) != 0 {
		t.Fatal("fast trace leaked into the slow ring")
	}
}

func TestRingEviction(t *testing.T) {
	// Capacity 8 across 8 shards = 1 slot per shard: the second trace
	// hashing to a shard must evict the first.
	tr := New(Config{SampleRate: 1, Capacity: 8})
	var ids []string
	for i := 0; i < 64; i++ {
		_, trace := tr.StartRequest(context.Background(), "req", "")
		tr.Finish(trace)
		ids = append(ids, trace.ID())
	}
	stored := 0
	for _, id := range ids {
		if _, ok := tr.Get(id); ok {
			stored++
		}
	}
	if stored > 8 {
		t.Fatalf("ring holds %d traces, capacity 8", stored)
	}
	// The newest trace in each shard survives; the very last Finish is
	// always retrievable.
	if _, ok := tr.Get(ids[len(ids)-1]); !ok {
		t.Fatal("most recent trace evicted")
	}
	if got := len(tr.Recent(100)); got > 8 {
		t.Fatalf("Recent returned %d, capacity 8", got)
	}
}

func TestRingConcurrent(t *testing.T) {
	// Hammer Finish/Get/Recent from parallel goroutines; the race
	// detector is the assertion.
	tr := New(Config{SampleRate: 1, SlowThreshold: time.Nanosecond, Capacity: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ctx, trace := tr.StartRequest(context.Background(), "req", "")
				_, sp := Start(ctx, "child")
				sp.SetInt("i", int64(i))
				sp.End()
				tr.Finish(trace)
				tr.Get(trace.ID())
				tr.Recent(5)
				tr.Slowest(5)
			}
		}()
	}
	wg.Wait()
}

func TestNestedSpanTree(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	ctx, trace := tr.StartRequest(context.Background(), "req", "")
	c1, sp1 := Start(ctx, "outer")
	_, sp2 := Start(c1, "inner")
	sp2.SetBool("ok", true)
	sp2.End()
	sp1.End()
	// A second child of the root, started from the root ctx.
	_, sp3 := Start(ctx, "sibling")
	sp3.End()
	tr.Finish(trace)
	snap, _ := tr.Get(trace.ID())
	if len(snap.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(snap.Root.Children))
	}
	outer := snap.Root.Children[0]
	if outer.Name != "outer" || len(outer.Children) != 1 || outer.Children[0].Name != "inner" {
		t.Fatalf("nesting lost: %+v", snap.Root)
	}
}

func TestDisabledZeroAlloc(t *testing.T) {
	// The whole point of the nil-span design: with no trace in the
	// context, Start + setters + End allocate nothing.
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := Start(ctx, "kernel")
		sp.SetInt("expansions", 42)
		sp.SetStr("algo", "dijkstra")
		sp.SetFloat("cost", 12.5)
		sp.SetBool("found", true)
		FromContext(c).SetInt("depth", 3)
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled Start/Set/End allocated %.1f per op, want 0", allocs)
	}
	// Same for a nil tracer end to end.
	var tr *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		c, trace := tr.StartRequest(ctx, "req", "")
		tr.Finish(trace)
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("nil tracer StartRequest/Finish allocated %.1f per op, want 0", allocs)
	}
}

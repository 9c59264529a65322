package storage

import (
	"bytes"
	"sync"
	"testing"
)

func TestDiskAllocateReadWrite(t *testing.T) {
	d := NewDisk(128)
	if d.PageSize() != 128 {
		t.Fatalf("PageSize = %d", d.PageSize())
	}
	id := d.Allocate()
	if id != 0 || d.NumPages() != 1 {
		t.Fatalf("first allocation: id=%d pages=%d", id, d.NumPages())
	}
	buf := make([]byte, 128)
	if err := d.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 128)) {
		t.Error("fresh page not zeroed")
	}
	copy(buf, "hello")
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 128)
	if err := d.Read(id, out); err != nil {
		t.Fatal(err)
	}
	if string(out[:5]) != "hello" {
		t.Errorf("read back %q", out[:5])
	}
	st := d.Stats()
	if st.Reads != 2 || st.Writes != 1 {
		t.Errorf("stats = %+v, want 2 reads 1 write", st)
	}
	d.ResetStats()
	if st := d.Stats(); st.Reads != 0 || st.Writes != 0 {
		t.Errorf("after reset: %+v", st)
	}
}

func TestDiskDefaultPageSize(t *testing.T) {
	if NewDisk(0).PageSize() != PageSize {
		t.Error("default page size not applied")
	}
}

func TestDiskErrors(t *testing.T) {
	d := NewDisk(64)
	buf := make([]byte, 64)
	if err := d.Read(0, buf); err == nil {
		t.Error("read of unallocated page succeeded")
	}
	if err := d.Write(5, buf); err == nil {
		t.Error("write of unallocated page succeeded")
	}
	d.Allocate()
	if err := d.Read(0, make([]byte, 10)); err == nil {
		t.Error("short read buffer accepted")
	}
	if err := d.Write(0, make([]byte, 10)); err == nil {
		t.Error("short write buffer accepted")
	}
	if err := d.Read(-1, buf); err == nil {
		t.Error("negative page id accepted")
	}
}

func TestDiskStatsArithmetic(t *testing.T) {
	a := DiskStats{Reads: 10, Writes: 4}
	b := DiskStats{Reads: 3, Writes: 1}
	diff := a.Sub(b)
	if diff.Reads != 7 || diff.Writes != 3 {
		t.Errorf("Sub = %+v", diff)
	}
	if u := diff.TimeUnits(0.035, 0.05); u != 7*0.035+3*0.05 {
		t.Errorf("TimeUnits = %v", u)
	}
}

// TestDiskConcurrentUse drives every Disk method from several goroutines
// at once, so the race detector checks that each one holds d.mu. Each
// worker allocates a page, writes and reads it back and polls the
// counters; it frees every other page at once and holds the rest until
// it is done, so the device keeps growing while the others read it.
func TestDiskConcurrentUse(t *testing.T) {
	const workers, rounds = 4, 1000
	d := NewDisk(64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(fill byte) {
			defer wg.Done()
			buf, out := bytes.Repeat([]byte{fill}, 64), make([]byte, 64)
			var held []PageID
			for i := 0; i < rounds; i++ {
				id := d.Allocate()
				if err := d.Write(id, buf); err != nil {
					t.Error(err)
					return
				}
				if err := d.Read(id, out); err != nil || !bytes.Equal(out, buf) {
					t.Errorf("page %d read back %v (err %v), wrote %v", id, out[:4], err, fill)
					return
				}
				// Pages never shrink, so a free count read first cannot
				// exceed a page count read after it.
				if f, n := d.FreePages(), d.NumPages(); n > workers*rounds || f > n {
					t.Errorf("%d pages, %d free, after at most %d allocations", n, f, workers*rounds)
				}
				_ = d.Stats()
				if i%2 == 0 {
					held = append(held, id)
				} else if err := d.Free(id); err != nil {
					t.Error(err)
				}
			}
			for _, id := range held {
				if err := d.Free(id); err != nil {
					t.Error(err)
				}
			}
		}(byte(w + 1))
	}
	wg.Wait()
	if st := d.Stats(); st.Reads != workers*rounds || st.Writes != workers*rounds {
		t.Errorf("stats %+v, want %d reads and writes", st, workers*rounds)
	}
	if d.FreePages() != d.NumPages() {
		t.Errorf("%d of %d pages free after every worker freed its own", d.FreePages(), d.NumPages())
	}
}

func TestPoolBasicPinUnpin(t *testing.T) {
	d := NewDisk(64)
	bp := NewBufferPool(d, 4)
	f, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data(), "abc")
	f.MarkDirty()
	id := f.ID()
	bp.Unpin(f)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Read back through a fresh pool to prove the bytes reached disk.
	bp2 := NewBufferPool(d, 4)
	g, err := bp2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(g.Data()[:3]) != "abc" {
		t.Errorf("read back %q", g.Data()[:3])
	}
	bp2.Unpin(g)
}

func TestPoolHitMissCounting(t *testing.T) {
	d := NewDisk(64)
	bp := NewBufferPool(d, 4)
	f, _ := bp.NewPage()
	id := f.ID()
	bp.Unpin(f)
	g, _ := bp.Get(id) // cached: hit
	bp.Unpin(g)
	st := bp.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 1 hit", st)
	}
}

func TestPoolEvictionLRU(t *testing.T) {
	d := NewDisk(64)
	bp := NewBufferPool(d, 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i + 1)
		f.MarkDirty()
		ids = append(ids, f.ID())
		bp.Unpin(f)
	}
	// Capacity 2: creating page 2 evicted page 0 (LRU) and flushed it.
	st := bp.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	reads0 := d.Stats().Reads
	f, err := bp.Get(ids[0]) // must fault back in with its data intact
	if err != nil {
		t.Fatal(err)
	}
	if f.Data()[0] != 1 {
		t.Errorf("evicted page lost data: %d", f.Data()[0])
	}
	bp.Unpin(f)
	if d.Stats().Reads != reads0+1 {
		t.Error("fault-in did not hit disk")
	}
}

func TestPoolAllPinnedExhaustion(t *testing.T) {
	d := NewDisk(64)
	bp := NewBufferPool(d, 2)
	a, _ := bp.NewPage()
	c, _ := bp.NewPage()
	if _, err := bp.NewPage(); err == nil {
		t.Error("pool handed out a frame beyond capacity with all pinned")
	}
	bp.Unpin(a)
	if _, err := bp.NewPage(); err != nil {
		t.Errorf("pool failed after unpin: %v", err)
	}
	_ = c
}

func TestPoolUnpinPanicsWhenUnpinned(t *testing.T) {
	d := NewDisk(64)
	bp := NewBufferPool(d, 2)
	f, _ := bp.NewPage()
	bp.Unpin(f)
	defer func() {
		if recover() == nil {
			t.Error("double unpin did not panic")
		}
	}()
	bp.Unpin(f)
}

func TestPoolRepin(t *testing.T) {
	d := NewDisk(64)
	bp := NewBufferPool(d, 2)
	f, _ := bp.NewPage()
	id := f.ID()
	bp.Unpin(f)
	// Re-pin the same cached page twice; one unpin must keep it pinned.
	g1, _ := bp.Get(id)
	g2, _ := bp.Get(id)
	if g1 != g2 {
		t.Fatal("same page produced distinct frames")
	}
	bp.Unpin(g1)
	// Still pinned once: filling the pool must not evict it.
	h, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(h)
	h2, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(h2)
	if _, ok := bp.frames[id]; !ok {
		t.Error("pinned page was evicted")
	}
	bp.Unpin(g2)
}

func TestPoolDirtyWritebackOnEviction(t *testing.T) {
	d := NewDisk(64)
	bp := NewBufferPool(d, 1)
	f, _ := bp.NewPage()
	copy(f.Data(), "xyz")
	f.MarkDirty()
	id := f.ID()
	bp.Unpin(f)
	g, _ := bp.NewPage() // evicts and flushes page 0
	bp.Unpin(g)
	buf := make([]byte, 64)
	if err := d.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:3]) != "xyz" {
		t.Errorf("dirty page not written back: %q", buf[:3])
	}
}

func TestPoolDefaultCapacity(t *testing.T) {
	bp := NewBufferPool(NewDisk(64), 0)
	if bp.Capacity() != 64 {
		t.Errorf("default capacity = %d", bp.Capacity())
	}
}

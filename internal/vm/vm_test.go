package vm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageSize(t *testing.T) {
	cases := []struct {
		ps    PageSize
		shift uint
	}{{Page4K, 12}, {Page16K, 14}, {Page64K, 16}}
	for _, c := range cases {
		if c.ps.Shift() != c.shift {
			t.Errorf("%d shift = %d, want %d", c.ps, c.ps.Shift(), c.shift)
		}
		a := VAddr(0xdeadbeef)
		v := c.ps.VPNOf(a)
		if c.ps.Base(v) > a || a-c.ps.Base(v) >= VAddr(c.ps) {
			t.Errorf("%d VPN/Base roundtrip broken", c.ps)
		}
	}
}

func TestTranslatePreservesOffset(t *testing.T) {
	ps := Page4K
	a := VAddr(0x12345)
	pa := ps.Translate(a, PFN(7))
	if uint64(pa)&0xfff != uint64(a)&0xfff {
		t.Errorf("offset not preserved: %#x", pa)
	}
	if uint64(pa)>>12 != 7 {
		t.Errorf("frame not applied: %#x", pa)
	}
}

func TestPageTableInsertLookup(t *testing.T) {
	pt := NewPageTable()
	pt.Insert(PTE{VPN: 42, PFN: 100, Owner: 3})
	e, levels, ok := pt.Lookup(42)
	if !ok || e.PFN != 100 || e.Owner != 3 {
		t.Fatalf("lookup = %+v ok=%v", e, ok)
	}
	if levels != 5 {
		t.Errorf("successful walk touched %d levels, want 5", levels)
	}
	if pt.Len() != 1 {
		t.Errorf("Len = %d, want 1", pt.Len())
	}
}

func TestPageTableMissEarlyTermination(t *testing.T) {
	pt := NewPageTable()
	pt.Insert(PTE{VPN: 0})
	// A VPN differing in the top radix digit misses at level 1.
	far := VPN(1) << (9 * 4)
	_, levels, ok := pt.Lookup(far)
	if ok {
		t.Fatal("unexpected hit")
	}
	if levels != 1 {
		t.Errorf("early miss touched %d levels, want 1", levels)
	}
	// A neighbour in the same leaf misses only at the last level.
	_, levels, ok = pt.Lookup(1)
	if ok || levels != 5 {
		t.Errorf("leaf miss touched %d levels (ok=%v), want 5", levels, ok)
	}
}

func TestPageTableOverwrite(t *testing.T) {
	pt := NewPageTable()
	pt.Insert(PTE{VPN: 5, PFN: 1})
	pt.Insert(PTE{VPN: 5, PFN: 2})
	e, _, _ := pt.Lookup(5)
	if e.PFN != 2 || pt.Len() != 1 {
		t.Fatalf("overwrite: pfn=%d len=%d", e.PFN, pt.Len())
	}
}

func TestLeafSharing(t *testing.T) {
	pt := NewPageTable()
	if pt.LeafIndex(100) != pt.LeafIndex(103) {
		t.Error("adjacent VPNs should share a leaf")
	}
	if pt.LeafIndex(511) == pt.LeafIndex(512) {
		t.Error("VPNs across a 512 boundary should not share a leaf")
	}
}

// Property: insert-then-lookup roundtrips for arbitrary VPN/PFN pairs, and
// lookups of never-inserted VPNs miss.
func TestPageTableProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := NewPageTable()
		ref := map[VPN]PFN{}
		for i := 0; i < 500; i++ {
			v := VPN(rng.Uint64() & 0x1fffffffff) // 37 bits < 45-bit space
			p := PFN(rng.Uint64())
			pt.Insert(PTE{VPN: v, PFN: p})
			ref[v] = p
		}
		for v, p := range ref {
			e, _, ok := pt.Lookup(v)
			if !ok || e.PFN != p {
				return false
			}
		}
		if pt.Len() != len(ref) {
			return false
		}
		for i := 0; i < 100; i++ {
			v := VPN(rng.Uint64())
			if _, present := ref[v]; !present && mapped(pt, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPlacementPartition(t *testing.T) {
	p := NewPlacement(48, Page4K)
	r := p.Alloc("buf", 480, 0)
	if r.ChunkPages != 10 {
		t.Fatalf("chunk = %d, want 10", r.ChunkPages)
	}
	// Paper's example: pages 0-9 -> GPM 0, 10-19 -> GPM 1, ...
	for i := 0; i < 480; i++ {
		v := r.Start + VPN(i)
		owner, ok := p.OwnerOf(v)
		if !ok || owner != i/10 {
			t.Fatalf("page %d owner = %d (ok=%v), want %d", i, owner, ok, i/10)
		}
		e, _, ok := p.Global().Lookup(v)
		if !ok || e.Owner != owner {
			t.Fatalf("global table owner mismatch for page %d", i)
		}
		if !mapped(p.Local(owner), v) {
			t.Fatalf("local table of GPM %d missing page %d", owner, i)
		}
		// No other GPM's local table has it.
		other := (owner + 1) % 48
		if mapped(p.Local(other), v) {
			t.Fatalf("page %d leaked into GPM %d's local table", i, other)
		}
	}
}

func TestPlacementUnevenSplit(t *testing.T) {
	p := NewPlacement(4, Page4K)
	r := p.Alloc("odd", 10, 0)
	counts := make([]int, 4)
	for i := 0; i < 10; i++ {
		o, _ := p.OwnerOf(r.Start + VPN(i))
		counts[o]++
	}
	// Balanced split: no GPM differs from another by more than one page,
	// and ownership agrees with OwnerSlice.
	for g := 0; g < 4; g++ {
		lo, hi := r.OwnerSlice(g, 4)
		if counts[g] != hi-lo {
			t.Fatalf("GPM %d owns %d pages, OwnerSlice says %d", g, counts[g], hi-lo)
		}
		if counts[g] < 2 || counts[g] > 3 {
			t.Fatalf("unbalanced counts %v", counts)
		}
	}
}

func TestOwnerSliceCoversRegion(t *testing.T) {
	for _, pages := range []int{48, 100, 255, 4801} {
		r := Region{Start: 1, Pages: pages}
		prev := 0
		for g := 0; g < 48; g++ {
			lo, hi := r.OwnerSlice(g, 48)
			if lo != prev {
				t.Fatalf("pages=%d gpm=%d slice gap: lo=%d prev=%d", pages, g, lo, prev)
			}
			if pages >= 48 && hi <= lo {
				t.Fatalf("pages=%d gpm=%d empty slice", pages, g)
			}
			prev = hi
		}
		if prev != pages {
			t.Fatalf("pages=%d slices end at %d", pages, prev)
		}
	}
}

func TestPlacementDisjointFrames(t *testing.T) {
	p := NewPlacement(8, Page4K)
	p.Alloc("a", 100, 0)
	p.Alloc("b", 100, 0)
	seen := map[PFN]bool{}
	for _, r := range p.Regions() {
		for i := 0; i < r.Pages; i++ {
			e, _, ok := p.Global().Lookup(r.Start + VPN(i))
			if !ok {
				t.Fatalf("unmapped page in region %s", r.Name)
			}
			if seen[e.PFN] {
				t.Fatalf("frame %d double-allocated", e.PFN)
			}
			seen[e.PFN] = true
		}
	}
}

func TestPlacementOwnerOfUnmapped(t *testing.T) {
	p := NewPlacement(4, Page4K)
	p.Alloc("a", 8, 0)
	if _, ok := p.OwnerOf(VPN(1 << 40)); ok {
		t.Error("OwnerOf returned ok for unmapped page")
	}
	if mapped(p.Global(), 0) {
		t.Error("guard VPN 0 should be unmapped")
	}
}

// Property: OwnerOf always agrees with the global page table.
func TestPlacementOwnerAgreesWithTable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPlacement(rng.Intn(47)+2, Page4K)
		for a := 0; a < 3; a++ {
			p.Alloc("r", rng.Intn(500)+1, 0)
		}
		for _, r := range p.Regions() {
			for i := 0; i < r.Pages; i++ {
				v := r.Start + VPN(i)
				o1, ok1 := p.OwnerOf(v)
				e, _, ok2 := p.Global().Lookup(v)
				if !ok1 || !ok2 || o1 != e.Owner {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPlacementTotalPagesAndStringers(t *testing.T) {
	p := NewPlacement(4, Page4K)
	p.Alloc("a", 10, 0)
	p.Alloc("b", 6, 0)
	pte := PTE{VPN: 1, PFN: 2, Owner: 3}
	if pte.String() == "" {
		t.Error("PTE.String empty")
	}
}

// Each GPM's frame space is 2^frameSpaceBits frames; the bump allocator
// must refuse to cross into the next GPM's space rather than silently
// handing out colliding frames.
func TestFrameSpaceExhaustionGuard(t *testing.T) {
	p := NewPlacement(4, Page4K)
	// Frames for GPM 2 start at 2<<frameSpaceBits; pretend all but one
	// have been handed out.
	p.nextPFN[2] = PFN(uint64(3)<<frameSpaceBits - 1)
	if f := p.takeFrame(2); uint64(f) != uint64(3)<<frameSpaceBits-1 {
		t.Fatalf("last frame = %#x", uint64(f))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("takeFrame past the frame-space boundary did not panic")
		}
	}()
	p.takeFrame(2)
}

// The block-partition arithmetic must stay exact at giant-wafer scale:
// every page has exactly one owner, OwnerSlice tiles the index space with
// no gaps or overlaps, and ownerOfIndex inverts it.
func TestOwnerSliceTilesAtScale(t *testing.T) {
	const numGPMs = 899 // 30x30 wafer minus the CPU tile
	const pages = 1 << 20
	next := 0
	for g := 0; g < numGPMs; g++ {
		lo, hi := Region{Pages: pages}.OwnerSlice(g, numGPMs)
		if lo != next {
			t.Fatalf("GPM %d slice starts at %d, want %d", g, lo, next)
		}
		if hi < lo {
			t.Fatalf("GPM %d slice inverted: [%d,%d)", g, lo, hi)
		}
		next = hi
		// Spot-check inversion at the slice edges.
		if lo < hi {
			if o := ownerOfIndex(lo, pages, numGPMs); o != g {
				t.Fatalf("ownerOfIndex(%d) = %d, want %d", lo, o, g)
			}
			if o := ownerOfIndex(hi-1, pages, numGPMs); o != g {
				t.Fatalf("ownerOfIndex(%d) = %d, want %d", hi-1, o, g)
			}
		}
	}
	if next != pages {
		t.Fatalf("slices cover %d pages, want %d", next, pages)
	}
}

// mapped reports whether the table maps v.
func mapped(t *PageTable, v VPN) bool {
	_, _, ok := t.Lookup(v)
	return ok
}

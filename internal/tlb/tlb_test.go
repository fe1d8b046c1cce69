package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hdpat/internal/vm"
)

func mkTLB(sets, ways int) *TLB {
	return New(Config{Sets: sets, Ways: ways, MSHRs: 4, Latency: 4})
}

func pte(v vm.VPN) vm.PTE { return vm.PTE{VPN: v, PFN: vm.PFN(v * 10), Valid: true} }

func TestLookupMissThenHit(t *testing.T) {
	tl := mkTLB(4, 2)
	k := Key{VPN: 42}
	if _, ok := tl.Lookup(k); ok {
		t.Fatal("hit in empty TLB")
	}
	tl.Insert(pte(42))
	got, ok := tl.Lookup(k)
	if !ok || got.PFN != 420 {
		t.Fatalf("lookup after insert: %+v ok=%v", got, ok)
	}
	if tl.Stats.Hits != 1 || tl.Stats.Misses != 1 {
		t.Errorf("stats = %+v", tl.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// 1 set, 2 ways: inserting a third entry evicts the LRU.
	tl := mkTLB(1, 2)
	tl.Insert(pte(1))
	tl.Insert(pte(2))
	tl.Lookup(Key{VPN: 1}) // 1 becomes MRU, 2 is LRU
	tl.Insert(pte(3))      // evicts 2
	if _, ok := tl.Peek(Key{VPN: 2}); ok {
		t.Error("LRU entry 2 survived")
	}
	if _, ok := tl.Peek(Key{VPN: 1}); !ok {
		t.Error("MRU entry 1 evicted")
	}
	if tl.Stats.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", tl.Stats.Evictions)
	}
}

func TestOnEvictCallback(t *testing.T) {
	tl := mkTLB(1, 1)
	var evicted []vm.VPN
	tl.OnEvict = func(p vm.PTE) { evicted = append(evicted, p.VPN) }
	tl.Insert(pte(1))
	tl.Insert(pte(2))
	tl.Insert(pte(3))
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("evicted = %v", evicted)
	}
}

func TestReinsertRefreshes(t *testing.T) {
	tl := mkTLB(1, 2)
	tl.Insert(pte(1))
	tl.Insert(pte(2))
	tl.Insert(pte(1)) // refresh, not duplicate
	if tl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tl.Len())
	}
	tl.Insert(pte(3)) // evicts 2 (LRU), not 1
	if _, ok := tl.Peek(Key{VPN: 1}); !ok {
		t.Error("refreshed entry was evicted")
	}
}

func TestFlush(t *testing.T) {
	tl := mkTLB(4, 4)
	for v := vm.VPN(0); v < 16; v++ {
		tl.Insert(pte(v))
	}
	tl.Flush()
	if tl.Len() != 0 {
		t.Fatalf("Len = %d after flush", tl.Len())
	}
}

func TestPIDsAreSeparate(t *testing.T) {
	tl := mkTLB(8, 4)
	tl.Insert(vm.PTE{VPN: 9, PFN: 1, PID: 1, Valid: true})
	if _, ok := tl.Peek(Key{VPN: 9, PID: 2}); ok {
		t.Error("PID 2 hit PID 1's entry")
	}
	if _, ok := tl.Peek(Key{VPN: 9, PID: 1}); !ok {
		t.Error("owning PID missed")
	}
}

// Property: TLB never exceeds capacity and lookups after inserts return the
// inserted PFN for keys still resident.
func TestTLBProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := mkTLB(4, 4)
		resident := map[Key]vm.PFN{}
		for i := 0; i < 500; i++ {
			v := vm.VPN(rng.Intn(64))
			tl.Insert(pte(v))
			resident[Key{VPN: v}] = vm.PFN(v * 10)
			if tl.Len() > tl.Capacity() {
				return false
			}
		}
		// Every entry still resident must carry the right PFN.
		for k, pfn := range resident {
			if got, ok := tl.Peek(k); ok && got.PFN != pfn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty stats hit rate not 0")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %f", s.HitRate())
	}
}

func TestMSHRCoalesce(t *testing.T) {
	m := NewMSHR(2)
	var results []vm.PFN
	cb := FillerFunc(func(p vm.PTE, ok bool) { results = append(results, p.PFN) })
	k := Key{VPN: 7}
	primary, ok := m.Allocate(k, cb)
	if !primary || !ok {
		t.Fatal("first allocate should be primary")
	}
	primary, ok = m.Allocate(k, cb)
	if primary || !ok {
		t.Fatal("second allocate should merge")
	}
	if m.Used() != 1 {
		t.Fatalf("Used = %d, want 1", m.Used())
	}
	m.Complete(k, vm.PTE{PFN: 99}, true)
	if len(results) != 2 || results[0] != 99 || results[1] != 99 {
		t.Fatalf("results = %v", results)
	}
	if m.Used() != 0 {
		t.Fatalf("Used = %d after complete", m.Used())
	}
}

func TestMSHRFullStalls(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(Key{VPN: 1}, FillerFunc(func(vm.PTE, bool) {}))
	_, ok := m.Allocate(Key{VPN: 2}, FillerFunc(func(vm.PTE, bool) {}))
	if ok {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if m.Stalled != 1 {
		t.Errorf("Stalled = %d", m.Stalled)
	}
	// Same-key merge still works when full.
	_, ok = m.Allocate(Key{VPN: 1}, FillerFunc(func(vm.PTE, bool) {}))
	if !ok {
		t.Fatal("merge rejected while full")
	}
}

func TestMSHRCompleteUnknownKey(t *testing.T) {
	m := NewMSHR(2)
	m.Complete(Key{VPN: 5}, vm.PTE{}, false) // must not panic
}

func BenchmarkTLBLookup(b *testing.B) {
	tl := New(Config{Sets: 64, Ways: 32, Latency: 32})
	for v := vm.VPN(0); v < 2048; v++ {
		tl.Insert(pte(v))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(Key{VPN: vm.VPN(i % 4096)})
	}
}

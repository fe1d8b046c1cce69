package workload

import (
	"bytes"
	"encoding/json"
	"testing"

	"hdpat/internal/stats"
	"hdpat/internal/vm"
)

// buildCtx allocates a benchmark's regions on a placement and returns a
// Context for the given GPM/CU.
func buildCtx(t *testing.T, b Benchmark, gpm, cu int) Context {
	t.Helper()
	const numGPMs, numCUs = 48, 4
	p := vm.NewPlacement(numGPMs, vm.Page4K)
	regions := map[string]vm.Region{}
	for _, rs := range b.Regions(16, numGPMs, vm.Page4K) {
		regions[rs.Name] = p.Alloc(rs.Name, rs.Pages, 0)
	}
	return Context{
		Regions: regions, PageSize: vm.Page4K,
		GPM: gpm, NumGPMs: numGPMs, CU: cu, NumCUs: numCUs,
		OpsBudget: 256, Seed: 42,
	}
}

func TestTable2Inventory(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("benchmark count = %d, want 14", len(all))
	}
	want := map[string]struct {
		wg int
		mb int
	}{
		"AES": {4096, 8}, "BT": {16384, 16}, "FWT": {16384, 64},
		"FFT": {32768, 256}, "FIR": {65536, 256}, "FWS": {65536, 72},
		"I2C": {16384, 32}, "KM": {32768, 40}, "MM": {16384, 256},
		"MT": {524288, 2048}, "PR": {524288, 14}, "RELU": {1310720, 1280},
		"SC": {262465, 256}, "SPMV": {81920, 120},
	}
	for _, b := range all {
		w, ok := want[b.Abbr]
		if !ok {
			t.Errorf("unexpected benchmark %s", b.Abbr)
			continue
		}
		if b.Workgroups != w.wg || b.FootprintMB != w.mb {
			t.Errorf("%s: wg=%d fp=%d, want wg=%d fp=%d", b.Abbr, b.Workgroups, b.FootprintMB, w.wg, w.mb)
		}
	}
}

func TestByAbbr(t *testing.T) {
	b, err := ByAbbr("SPMV")
	if err != nil || b.Abbr != "SPMV" {
		t.Fatalf("ByAbbr: %v %v", b.Abbr, err)
	}
	if _, err := ByAbbr("NOPE"); err == nil {
		t.Error("unknown abbr accepted")
	}
	if len(Names()) != 14 {
		t.Errorf("Names() has %d entries", len(Names()))
	}
}

// Every benchmark must produce a nonempty, in-bounds, deterministic trace
// for every sampled (GPM, CU) position.
func TestTracesValidAndDeterministic(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Abbr, func(t *testing.T) {
			for _, pos := range [][2]int{{0, 0}, {13, 1}, {47, 3}} {
				ctx := buildCtx(t, b, pos[0], pos[1])
				tr := b.Trace(ctx)
				if len(tr) == 0 {
					t.Fatalf("empty trace at gpm=%d cu=%d", pos[0], pos[1])
				}
				if len(tr) > ctx.OpsBudget*4 {
					t.Errorf("trace of %d ops blows budget %d", len(tr), ctx.OpsBudget)
				}
				// Same context, same trace.
				tr2 := b.Trace(ctx)
				if len(tr) != len(tr2) {
					t.Fatal("trace nondeterministic in length")
				}
				for i := range tr {
					if tr[i] != tr2[i] {
						t.Fatalf("trace nondeterministic at op %d", i)
					}
				}
				// All addresses land in an allocated region.
				for _, a := range tr {
					vpn := ctx.PageSize.VPNOf(a)
					found := false
					for _, r := range ctx.Regions {
						if r.Contains(vpn) {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("address %#x outside all regions", uint64(a))
					}
				}
			}
		})
	}
}

// Different CUs should mostly access different pages of the partitioned
// regions (work is partitioned, not duplicated) for streaming workloads.
func TestStreamingWorkloadsPartition(t *testing.T) {
	// Compare only the main (partitioned) region. AES is excluded: its
	// scaled state region has fewer pages per GPM than CUs, so CUs share
	// pages round-robin by design.
	mainRegion := map[string]string{"RELU": "tensor"}
	for _, abbr := range []string{"RELU"} {
		b, _ := ByAbbr(abbr)
		ctx0 := buildCtx(t, b, 5, 0)
		ctx1 := buildCtx(t, b, 5, 3)
		main := ctx0.Regions[mainRegion[abbr]]
		pages := func(tr []vm.VAddr) map[vm.VPN]bool {
			m := map[vm.VPN]bool{}
			for _, a := range tr {
				if v := vm.Page4K.VPNOf(a); main.Contains(v) {
					m[v] = true
				}
			}
			return m
		}
		p0, p1 := pages(b.Trace(ctx0)), pages(b.Trace(ctx1))
		overlap := 0
		for v := range p0 {
			if p1[v] {
				overlap++
			}
		}
		// Hot shared regions overlap; the main stream must not.
		if overlap*2 > len(p0) {
			t.Errorf("%s: CU page sets overlap %d/%d", abbr, overlap, len(p0))
		}
	}
}

// pageStream collapses consecutive same-page accesses — the filtering the
// L1 TLB performs before requests reach any shared structure.
func pageStream(tr []vm.VAddr) []uint64 {
	var out []uint64
	var prev uint64
	for i, a := range tr {
		v := uint64(vm.Page4K.VPNOf(a))
		if i == 0 || v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}

// O3 regime check: AES/RELU pages are mostly touched once per CU, while
// BT/FWT re-touch pages across stages.
func TestReuseRegimes(t *testing.T) {
	touch := func(abbr string) float64 {
		b, _ := ByAbbr(abbr)
		ctx := buildCtx(t, b, 10, 0)
		r := stats.NewReuseTracker()
		for _, v := range pageStream(b.Trace(ctx)) {
			r.Touch(v)
		}
		return r.SingleTouchFraction()
	}
	maxCount := func(abbr string) uint64 {
		b, _ := ByAbbr(abbr)
		ctx := buildCtx(t, b, 10, 0)
		r := stats.NewReuseTracker()
		for _, v := range pageStream(b.Trace(ctx)) {
			r.Touch(v)
		}
		return r.CountHistogram().Max()
	}
	if f := touch("RELU"); f < 0.9 {
		t.Errorf("RELU single-touch fraction %.2f, want >= 0.9", f)
	}
	if c := maxCount("RELU"); c > 2 {
		t.Errorf("RELU max per-page touches %d, want <= 2 (single pass)", c)
	}
	// Butterflies re-touch each CU's own pages once per stage.
	if c := maxCount("BT"); c < 4 {
		t.Errorf("BT max per-page touches %d, want >= 4 (one per stage)", c)
	}
	if c := maxCount("FWT"); c < 4 {
		t.Errorf("FWT max per-page touches %d, want >= 4", c)
	}
}

// O4 regime check: FIR (sliding window) must show far more consecutive
// near-page accesses than SPMV (random gather).
func TestSpatialRegimes(t *testing.T) {
	within4 := func(abbr string) float64 {
		b, _ := ByAbbr(abbr)
		ctx := buildCtx(t, b, 10, 0)
		var s stats.SpatialTracker
		for _, v := range pageStream(b.Trace(ctx)) {
			s.Touch(v)
		}
		return s.FractionWithin(4)
	}
	firVal, spmvVal := within4("FIR"), within4("SPMV")
	if firVal <= spmvVal {
		t.Errorf("FIR within-4 %.2f should exceed SPMV %.2f", firVal, spmvVal)
	}
	if firVal < 0.3 {
		t.Errorf("FIR within-4 %.2f too low for a sliding window", firVal)
	}
}

// MT must show much larger reuse distances than KM (hot centroids).
func TestReuseDistanceRegimes(t *testing.T) {
	meanDist := func(abbr string) float64 {
		b, _ := ByAbbr(abbr)
		ctx := buildCtx(t, b, 10, 0)
		r := stats.NewReuseTracker()
		for _, v := range pageStream(b.Trace(ctx)) {
			r.Touch(v)
		}
		if r.Distances.Total() == 0 {
			return 0
		}
		return r.Distances.Mean()
	}
	km, mt := meanDist("KM"), meanDist("MT")
	if km == 0 {
		t.Fatal("KM shows no reuse at all")
	}
	if mt != 0 && mt < km {
		t.Errorf("MT mean reuse distance %.0f should exceed KM %.0f when present", mt, km)
	}
}

// Regions must scale with the footprint and never starve a GPM.
func TestRegionScaling(t *testing.T) {
	for _, b := range All() {
		r16 := b.Regions(16, 48, vm.Page4K)
		r4 := b.Regions(4, 48, vm.Page4K)
		tot := func(rs []RegionSpec) int {
			n := 0
			for _, r := range rs {
				if r.Pages < 48 {
					t.Errorf("%s region %s has %d pages < 48 GPMs", b.Abbr, r.Name, r.Pages)
				}
				n += r.Pages
			}
			return n
		}
		if tot(r4) < tot(r16) {
			t.Errorf("%s: scale 4 total %d < scale 16 total %d", b.Abbr, tot(r4), tot(r16))
		}
	}
}

func TestGapsPositive(t *testing.T) {
	for _, b := range All() {
		if b.Gap <= 0 {
			t.Errorf("%s has non-positive gap", b.Abbr)
		}
		if b.Pattern == "" {
			t.Errorf("%s has no pattern label", b.Abbr)
		}
	}
}

func TestCustomBenchmark(t *testing.T) {
	b := Custom("X", "private hot", 4,
		[]RegionSpec{{Name: "hot", Pages: 96}},
		func(ctx Context) []vm.VAddr {
			r := ctx.Regions["hot"]
			var tr []vm.VAddr
			for i := 0; i < ctx.OpsBudget; i++ {
				tr = append(tr, ctx.PageSize.Base(r.Start+vm.VPN(i%r.Pages)))
			}
			return tr
		})
	if b.Abbr != "X" || b.Pattern != "custom" {
		t.Fatalf("custom benchmark %+v", b)
	}
	// Regions ignore scaling.
	rs := b.Regions(16, 48, vm.Page4K)
	if len(rs) != 1 || rs[0].Pages != 96 {
		t.Fatalf("regions %+v", rs)
	}
	ctx := buildCtx(t, b, 0, 0)
	ctx.Regions = map[string]vm.Region{}
	p := vm.NewPlacement(48, vm.Page4K)
	ctx.Regions["hot"] = p.Alloc("hot", 96, 0)
	tr := b.Trace(ctx)
	if len(tr) != ctx.OpsBudget {
		t.Fatalf("trace len %d", len(tr))
	}
}

func TestTraceRoundTrip(t *testing.T) {
	b, _ := ByAbbr("KM")
	var buf bytes.Buffer
	const numGPMs, numCUs, budget = 8, 2, 32
	if err := WriteTrace(&buf, b, 16, numGPMs, numCUs, budget, vm.Page4K, 9); err != nil {
		t.Fatal(err)
	}
	// Rebuild the original traces on an identical placement and compare
	// each decoded record against them, in write order.
	p := vm.NewPlacement(numGPMs, vm.Page4K)
	regions := map[string]vm.Region{}
	for _, rs := range b.Regions(16, numGPMs, vm.Page4K) {
		regions[rs.Name] = p.Alloc(rs.Name, rs.Pages, 0)
	}
	dec := json.NewDecoder(&buf)
	for g := 0; g < numGPMs; g++ {
		for cu := 0; cu < numCUs; cu++ {
			var rec TraceRecord
			if err := dec.Decode(&rec); err != nil {
				t.Fatalf("gpm %d cu %d: %v", g, cu, err)
			}
			if rec.GPM != g || rec.CU != cu {
				t.Fatalf("record (%d,%d), want (%d,%d)", rec.GPM, rec.CU, g, cu)
			}
			want := b.Trace(Context{Regions: regions, PageSize: vm.Page4K,
				GPM: g, NumGPMs: numGPMs, CU: cu, NumCUs: numCUs,
				OpsBudget: budget, Seed: 9})
			if len(rec.Addrs) != len(want) {
				t.Fatalf("gpm %d cu %d: record %d ops, want %d", g, cu, len(rec.Addrs), len(want))
			}
			for i := range want {
				if vm.VAddr(rec.Addrs[i]) != want[i] {
					t.Fatalf("gpm %d cu %d op %d: %#x != %#x", g, cu, i, rec.Addrs[i], want[i])
				}
			}
		}
	}
	if dec.More() {
		t.Error("trailing records after the last CU")
	}
}

package attr

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"hdpat/internal/trace"
)

// The collector must satisfy the tracer's sink seam structurally.
var _ trace.Sink = (*Collector)(nil)

func TestDistBasics(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Quantile(0.5) != 0 {
		t.Error("empty dist should report zeros")
	}
	for _, v := range []uint64{0, 10, 20, 30, 40} {
		d.Observe(v)
	}
	if d.Count != 5 || d.Sum != 100 || d.Min != 0 || d.Max != 40 {
		t.Fatalf("dist = %+v", d)
	}
	if d.Mean() != 20 {
		t.Errorf("mean = %v", d.Mean())
	}
	if q := d.Quantile(0); q != 0 {
		t.Errorf("q0 = %v, want Min", q)
	}
	if q := d.Quantile(1); q != 40 {
		t.Errorf("q1 = %v, want Max", q)
	}
	// Quantiles are estimates but must be monotone and within [Min, Max].
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := d.Quantile(q)
		if v < float64(d.Min) || v > float64(d.Max) || v < prev {
			t.Fatalf("quantile(%v) = %v not monotone in [min,max]", q, v)
		}
		prev = v
	}
}

func TestDistSingleValue(t *testing.T) {
	var d Dist
	for i := 0; i < 100; i++ {
		d.Observe(17)
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
		if v := d.Quantile(q); v != 17 {
			t.Errorf("quantile(%v) = %v, want 17", q, v)
		}
	}
}

// feed pushes one fully-observed request lifecycle through the ledger.
func feed(c *Collector, req uint64, issue, arrive, enq, start, walkEnd, done uint64, src int) {
	if enq > arrive {
		c.OnQueue("iommu.admission", arrive, enq, req)
	}
	if start > enq {
		c.OnQueue("iommu.pwq", enq, start, req)
	}
	c.OnWalk(start, walkEnd, req, 0x42)
	c.OnRequest(issue, done, req, src, 0)
}

func TestExactAccounting(t *testing.T) {
	c := NewCollector(Config{})
	// req 1: issue 0, arrive 100 (wire), enq 100, walk 150..250, done 300.
	feed(c, 1, 0, 100, 100, 150, 250, 300, 0)
	// req 2: admission 10 cycles, pwq 40, walk 100, done with 75 wire.
	feed(c, 2, 1000, 1020, 1030, 1070, 1170, 1225, 1)
	b := c.Finalize("hdpat", "bench", 2000)

	var stageSum uint64
	for _, s := range StageOrder {
		stageSum += b.Stage(s).Sum
	}
	if stageSum != b.Stage(StageTotal).Sum {
		t.Fatalf("stage sums %d != total %d", stageSum, b.Stage(StageTotal).Sum)
	}
	if b.Stage(StageTotal).Sum != 300+225 {
		t.Errorf("total = %d", b.Stage(StageTotal).Sum)
	}
	if b.Stage(StageAdmission).Sum != 10 || b.Stage(StagePWQ).Sum != 50+40 ||
		b.Stage(StageWalk).Sum != 200 {
		t.Errorf("stages: adm=%d pwq=%d walk=%d",
			b.Stage(StageAdmission).Sum, b.Stage(StagePWQ).Sum, b.Stage(StageWalk).Sum)
	}
	if b.Requests != 2 || b.Unfinished != 0 || b.Clipped != 0 {
		t.Errorf("requests=%d unfinished=%d clipped=%d", b.Requests, b.Unfinished, b.Clipped)
	}
	if b.Sources["iommu"] != 1 || b.Sources["peer"] != 1 {
		t.Errorf("sources = %v", b.Sources)
	}
}

func TestUnfinishedAndClipped(t *testing.T) {
	c := NewCollector(Config{})
	// Stage spans with no completing request (a walk racing a peer answer).
	c.OnQueue("iommu.pwq", 0, 50, 7)
	// A malformed lifecycle: more stage cycles than end-to-end latency.
	c.OnWalk(0, 100, 8, 1)
	c.OnRequest(0, 40, 8, 0, 0)
	b := c.Finalize("s", "b", 100)
	if b.Unfinished != 1 {
		t.Errorf("unfinished = %d, want 1", b.Unfinished)
	}
	if b.Clipped != 1 {
		t.Errorf("clipped = %d, want 1", b.Clipped)
	}
	if b.Stage(StageWire).Sum != 0 {
		t.Errorf("clipped request attributed wire %d", b.Stage(StageWire).Sum)
	}
}

func TestHeatmapAndDirections(t *testing.T) {
	c := NewCollector(Config{})
	c.OnHop(0, 40, 1, 1, 2, 1, 64, false) // east from (1,1)
	c.OnHop(0, 40, 1, 1, 0, 1, 32, false) // west
	c.OnHop(0, 40, 1, 1, 1, 2, 16, false) // south
	c.OnHop(0, 40, 1, 1, 1, 0, 8, false)  // north
	c.OnHop(50, 90, 1, 1, 2, 1, 64, true)
	b := c.Finalize("s", "b", 100)
	if len(b.Links) != 4 {
		t.Fatalf("links = %+v", b.Links)
	}
	byDir := map[string]LinkStat{}
	for _, l := range b.Links {
		if l.X != 1 || l.Y != 1 {
			t.Fatalf("unexpected link coord %+v", l)
		}
		byDir[l.Dir] = l
	}
	if byDir["e"].Messages != 2 || byDir["e"].Bytes != 128 {
		t.Errorf("east link = %+v", byDir["e"])
	}
	// The second east hop was a deflection; the other links carried none.
	if byDir["e"].Deflections != 1 {
		t.Errorf("east deflections = %d, want 1", byDir["e"].Deflections)
	}
	if byDir["w"].Deflections != 0 {
		t.Errorf("west deflections = %d, want 0", byDir["w"].Deflections)
	}
	if byDir["w"].Bytes != 32 || byDir["s"].Bytes != 16 || byDir["n"].Bytes != 8 {
		t.Errorf("links = %v", byDir)
	}
	// Replay mode: busy falls back to hop span durations.
	if byDir["e"].Busy != 80 {
		t.Errorf("east busy proxy = %d, want 80", byDir["e"].Busy)
	}
	csv := b.HeatmapCSV()
	if !strings.HasPrefix(csv, "x,y,dir,") || !strings.Contains(csv, ",deflections\n") {
		t.Errorf("csv header: %q", csv)
	}
	if got := len(strings.Split(strings.TrimSpace(csv), "\n")); got != 5 {
		t.Errorf("csv rows = %d, want 5", got)
	}
}

func TestSamplingSeriesAndPeaks(t *testing.T) {
	c := NewCollector(Config{Window: 100})
	depth, walkers := 3, 2
	busy := map[string]uint64{"e": 0}
	c.Probes(
		func() int { return depth },
		func() int { return walkers },
		func(v LinkVisitor) { v(0, 0, "e", busy["e"]) },
	)
	busy["e"] = 40
	c.Sample(100) // delta 40
	depth = 7
	busy["e"] = 130
	c.Sample(200) // delta 90 (peak)
	busy["e"] = 150
	b := c.Finalize("s", "b", 250)

	qd := b.Series["iommu.queue_depth"]
	if len(qd) != 2 || qd[0].Value != 3 || qd[1].Value != 7 || qd[1].At != 200 {
		t.Errorf("queue series = %+v", qd)
	}
	if wb := b.Series["iommu.walkers_busy"]; len(wb) != 2 || wb[0].Value != 2 {
		t.Errorf("walkers series = %+v", wb)
	}
	nb := b.Series["noc.busy_delta"]
	if len(nb) != 2 || nb[0].Value != 40 || nb[1].Value != 90 {
		t.Errorf("busy delta series = %+v", nb)
	}
	if len(b.Links) != 1 {
		t.Fatalf("links = %+v", b.Links)
	}
	l := b.Links[0]
	if l.Busy != 150 { // exact final occupancy from the probe
		t.Errorf("busy = %d, want 150", l.Busy)
	}
	if math.Abs(l.PeakUtil-0.9) > 1e-9 { // 90 busy cycles in a 100-cycle window
		t.Errorf("peak util = %v, want 0.9", l.PeakUtil)
	}
	if math.Abs(l.Util-150.0/250.0) > 1e-9 {
		t.Errorf("util = %v", l.Util)
	}
}

func TestDiffKeys(t *testing.T) {
	a := NewCollector(Config{})
	feed(a, 1, 0, 10, 10, 20, 120, 150, 0)
	bb := NewCollector(Config{})
	feed(bb, 1, 0, 30, 30, 80, 180, 250, 0)
	feed(bb, 2, 0, 30, 30, 80, 180, 250, 0)
	res, base := a.Finalize("hdpat", "x", 1000), bb.Finalize("baseline", "x", 1000)
	d := Diff(res, base)
	if d["requests"] != -1 {
		t.Errorf("requests delta = %v", d["requests"])
	}
	if d["total.mean"] != 150-250 {
		t.Errorf("total.mean delta = %v", d["total.mean"])
	}
	for _, k := range []string{"admission.mean", "pwq.p95", "walk.mean", "wire.p95", "total.p95"} {
		if _, ok := d[k]; !ok {
			t.Errorf("missing diff key %q", k)
		}
	}
}

func TestTLBTable(t *testing.T) {
	c := NewCollector(Config{})
	c.AddTLB("l2", 50, 50)
	c.AddTLB("l1", 90, 10)
	c.AddTLB("l1", 10, 90) // second instance accumulates
	c.AddTLB("aux", 1, 0)
	b := c.Finalize("s", "b", 100)
	if len(b.TLB) != 3 || b.TLB[0].Level != "l1" || b.TLB[1].Level != "l2" || b.TLB[2].Level != "aux" {
		t.Fatalf("tlb order = %+v", b.TLB)
	}
	if b.TLB[0].Hits != 100 || b.TLB[0].HitRate != 0.5 {
		t.Errorf("l1 = %+v", b.TLB[0])
	}
}

func TestMarkdownRendering(t *testing.T) {
	c := NewCollector(Config{})
	feed(c, 1, 0, 100, 100, 150, 250, 300, 0)
	b := c.Finalize("hdpat", "gups", 1000)
	var buf bytes.Buffer
	b.WriteMarkdown(&buf)
	out := buf.String()
	for _, want := range []string{"### hdpat / gups", "| Stage |", "| total |", "| iommu | 1 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	var cmp bytes.Buffer
	CompareMarkdown(&cmp, b, b)
	if !strings.Contains(cmp.String(), "hdpat vs hdpat") || !strings.Contains(cmp.String(), "+0.0") {
		t.Errorf("compare markdown:\n%s", cmp.String())
	}
}

// TestReplayMatchesLive: a breakdown rebuilt from a saved JSONL trace agrees
// with the live collector that saw the same spans.
func TestReplayMatchesLive(t *testing.T) {
	live := NewCollector(Config{})
	var buf bytes.Buffer
	tr := trace.Attach(trace.New(&buf, trace.JSONL), live)
	tr.QueueSpan("iommu.admission", 100, 110, 1)
	tr.QueueSpan("iommu.pwq", 110, 150, 1)
	tr.WalkSpan(150, 250, 1, 0x42)
	tr.HopSpan(250, 290, 0, 0, 1, 0, 64, false)
	tr.RequestSpan(80, 300, 1, 2, 5)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, err := ReplayJSONL(&buf, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := live.Finalize("", "", 300)
	for _, s := range append(append([]string{}, StageOrder...), StageTotal) {
		if replayed.Stage(s).Sum != want.Stage(s).Sum {
			t.Errorf("stage %s: replay %d != live %d", s, replayed.Stage(s).Sum, want.Stage(s).Sum)
		}
	}
	if replayed.Requests != 1 {
		t.Errorf("replay = %+v", replayed)
	}
	if replayed.Sources["proactive"] != 1 {
		t.Errorf("replay sources = %v", replayed.Sources)
	}
	if len(replayed.Links) != 1 || replayed.Links[0].Bytes != 64 {
		t.Errorf("replay links = %+v", replayed.Links)
	}
	if replayed.Cycles != 300 {
		t.Errorf("replay cycles = %d", replayed.Cycles)
	}
}

// TestReplayRunFilter: batch traces replay one child at a time.
func TestReplayRunFilter(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.JSONL)
	tr.Run(1).RequestSpan(0, 100, 1, 0, 0)
	tr.Run(2).RequestSpan(0, 200, 2, 0, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := ReplayJSONL(bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Requests != 1 || b.Stage(StageTotal).Sum != 200 {
		t.Errorf("filtered replay = %+v", b)
	}
}

// A queue or walk span arriving after its request completed (the dispatch
// skip path emits residency spans for requests answered elsewhere) must be
// counted late — never stitched into the finished breakdown and never left
// dangling as an unfinished ledger entry.
func TestLateSpansCountedNotStitched(t *testing.T) {
	c := NewCollector(Config{})
	feed(c, 1, 0, 100, 100, 150, 250, 300, 0)
	before := c.Finalize("s", "b", 0).Stage(StageTotal).Sum

	// req 1 is done: its residency spans postdate completion.
	c.OnQueue("iommu.pwq", 300, 400, 1)
	c.OnQueue("iommu.admission", 300, 350, 1)
	c.OnWalk(300, 500, 1, 9)

	b := c.Finalize("s", "b", 1000)
	if b.LateSpans != 3 {
		t.Errorf("late spans = %d, want 3", b.LateSpans)
	}
	if b.Unfinished != 0 {
		t.Errorf("unfinished = %d; late spans must not open dangling entries", b.Unfinished)
	}
	if b.Stage(StageTotal).Sum != before {
		t.Errorf("late spans were stitched: total %d != %d", b.Stage(StageTotal).Sum, before)
	}
	var stageSum uint64
	for _, s := range StageOrder {
		stageSum += b.Stage(s).Sum
	}
	if stageSum != b.Stage(StageTotal).Sum || b.Clipped != 0 {
		t.Errorf("exact accounting broken: stages=%d total=%d clipped=%d",
			stageSum, b.Stage(StageTotal).Sum, b.Clipped)
	}
}

// Finalize must release the working ledger — the per-request open/closed
// sets and the per-link SoA columns — once the Breakdown is built. A
// long-lived hdpatd process runs back-to-back sweeps; before this fix each
// finished run's collector held its peak ledger until the next run replaced
// it.
func TestFinalizeReleasesLedger(t *testing.T) {
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	c := NewCollector(Config{})
	// 200k completed requests: the closed set alone is several MB.
	for i := uint64(1); i <= 200_000; i++ {
		c.OnRequest(0, 100, i, 0, 0)
	}
	// A 40x40 wafer's worth of link activity into the SoA columns.
	for x := 0; x < 40; x++ {
		for y := 0; y < 40; y++ {
			c.OnHop(0, 10, x, y, x+1, y, 64, false)
		}
	}
	b := c.Finalize("s", "b", 1000)

	if c.open != nil || c.closed != nil {
		t.Error("request ledger maps retained after Finalize")
	}
	if c.linkIdx != nil || c.linkMsgs != nil || c.linkBytes != nil || c.linkHop != nil ||
		c.linkPrev != nil || c.linkPeak != nil || c.linkFinal != nil {
		t.Error("per-link SoA columns retained after Finalize")
	}

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	// The collector and breakdown stay live, but with the ledger dropped the
	// residual heap growth must be far below the ~10 MB the closed set held.
	// Generous bound to stay robust against allocator noise.
	if delta := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); delta > 4<<20 {
		t.Errorf("heap grew %d bytes across a finalized run; ledger not released", delta)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(b)
}

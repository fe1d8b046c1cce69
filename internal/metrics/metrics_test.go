package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestLog2BucketProperties(t *testing.T) {
	if Log2Bucket(0) != 0 {
		t.Errorf("Log2Bucket(0) = %d, want 0", Log2Bucket(0))
	}
	if lo, hi := BucketRange(0); lo != 0 || hi != 0 {
		t.Errorf("BucketRange(0) = %d, %d", lo, hi)
	}
	// Every non-zero value must land in a bucket whose range contains it.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		v := rng.Uint64() >> uint(rng.Intn(64))
		if v == 0 {
			continue
		}
		b := Log2Bucket(v)
		if b <= 0 || b >= NumBuckets {
			t.Fatalf("Log2Bucket(%d) = %d out of range", v, b)
		}
		lo, hi := BucketRange(b)
		if v < lo || v > hi {
			t.Fatalf("v=%d in bucket %d with range [%d, %d]", v, b, lo, hi)
		}
	}
	// Boundaries: 2^(i-1) starts bucket i, 2^i - 1 ends it.
	for i := 1; i < NumBuckets; i++ {
		lo, hi := BucketRange(i)
		if Log2Bucket(lo) != i {
			t.Errorf("Log2Bucket(%d) = %d, want %d", lo, Log2Bucket(lo), i)
		}
		if Log2Bucket(hi) != i {
			t.Errorf("Log2Bucket(%d) = %d, want %d", hi, Log2Bucket(hi), i)
		}
	}
	// Ranges tile the uint64 space without gaps.
	for i := 1; i < NumBuckets-1; i++ {
		_, hi := BucketRange(i)
		lo, _ := BucketRange(i + 1)
		if lo != hi+1 {
			t.Errorf("gap between bucket %d (hi %d) and %d (lo %d)", i, hi, i+1, lo)
		}
	}
	if _, hi := BucketRange(NumBuckets - 1); hi != math.MaxUint64 {
		t.Errorf("top bucket hi = %d, want MaxUint64", hi)
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-10)
	if g.Value() != -3 {
		t.Errorf("gauge = %d, want -3", g.Value())
	}
	g.Max(5)
	if g.Value() != 5 {
		t.Errorf("gauge after Max(5) = %d", g.Value())
	}
	g.Max(2) // lower: must not move
	if g.Value() != 5 {
		t.Errorf("gauge after Max(2) = %d, want 5", g.Value())
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs := s.Histograms["lat"]
	if hs.Count != 6 || hs.Sum != 1010 || hs.Max != 1000 {
		t.Errorf("snapshot = %+v", hs)
	}
	if got := hs.Mean(); got != 1010.0/6 {
		t.Errorf("mean = %f", got)
	}
	// 1000 lands in bucket 10 ([512, 1023]); trimming keeps 11 buckets.
	if len(hs.Buckets) != Log2Bucket(1000)+1 {
		t.Errorf("buckets trimmed to %d, want %d", len(hs.Buckets), Log2Bucket(1000)+1)
	}
	var total uint64
	for _, b := range hs.Buckets {
		total += b
	}
	if total != hs.Count {
		t.Errorf("bucket sum %d != count %d", total, hs.Count)
	}
	// The snapshot must be detached from the live histogram.
	h.Observe(5)
	if hs.Count != 6 || s.Histograms["lat"].Count != 6 {
		t.Error("snapshot not immutable")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter returned distinct handles for one name")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Error("Gauge returned distinct handles for one name")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Error("Histogram returned distinct handles for one name")
	}
}

func TestMerge(t *testing.T) {
	run := NewRegistry()
	run.Counter("c").Add(10)
	run.Gauge("g").Set(3)
	run.Histogram("h").Observe(100)
	run.Histogram("h").Observe(200)
	s := run.Snapshot()

	agg := NewRegistry()
	agg.Counter("c").Add(5)
	agg.Gauge("g").Set(99)
	agg.Histogram("h").Observe(7)
	agg.Merge(s)
	agg.Merge(nil) // no-op

	out := agg.Snapshot()
	if out.Counter("c") != 15 {
		t.Errorf("merged counter = %d, want 15", out.Counter("c"))
	}
	if out.Gauge("g") != 3 {
		t.Errorf("merged gauge = %d, want 3 (snapshot wins)", out.Gauge("g"))
	}
	h := out.Histograms["h"]
	if h.Count != 3 || h.Sum != 307 || h.Max != 200 {
		t.Errorf("merged histogram = %+v", h)
	}
}

// TestMergeConcurrentPerRunRegistries is the batch path of batch.go: every
// run owns a private registry and folds its final snapshot into the shared
// session registry as it settles, from worker goroutines. The aggregate
// must equal the arithmetic sum regardless of merge interleaving.
func TestMergeConcurrentPerRunRegistries(t *testing.T) {
	const runs = 16
	agg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run := NewRegistry() // per-run private registry
			run.Counter("noc.messages").Add(uint64(100 + i))
			run.Gauge("run.index").Set(int64(i))
			for v := uint64(0); v <= uint64(i); v++ {
				run.Histogram("iommu.latency").Observe(v * v)
			}
			agg.Merge(run.Snapshot())
		}(i)
	}
	wg.Wait()

	out := agg.Snapshot()
	var wantC, wantCount, wantSum, wantMax uint64
	for i := 0; i < runs; i++ {
		wantC += uint64(100 + i)
		for v := uint64(0); v <= uint64(i); v++ {
			wantCount++
			wantSum += v * v
			if v*v > wantMax {
				wantMax = v * v
			}
		}
	}
	if got := out.Counter("noc.messages"); got != wantC {
		t.Errorf("merged counter = %d, want %d", got, wantC)
	}
	h := out.Histograms["iommu.latency"]
	if h.Count != wantCount || h.Sum != wantSum || h.Max != wantMax {
		t.Errorf("merged histogram = %+v, want count %d sum %d max %d", h, wantCount, wantSum, wantMax)
	}
	var bucketTotal uint64
	for _, b := range h.Buckets {
		bucketTotal += b
	}
	if bucketTotal != wantCount {
		t.Errorf("bucket occupancy %d != count %d after merges", bucketTotal, wantCount)
	}
	// The gauge holds some run's index — last merge wins, any run is legal.
	if g := out.Gauge("run.index"); g < 0 || g >= runs {
		t.Errorf("merged gauge = %d, outside run range", g)
	}
}

// TestMergeHistogramBucketEdges covers bucket-boundary cases of the merge:
// trimmed bucket slices of different lengths, the zero-value bucket, the
// top bucket, empty histograms, and max propagation in both directions.
func TestMergeHistogramBucketEdges(t *testing.T) {
	short := NewRegistry()
	short.Histogram("h").Observe(0) // bucket 0: the zero-only bucket
	short.Histogram("h").Observe(1) // bucket 1
	long := NewRegistry()
	long.Histogram("h").Observe(1 << 63)       // top bucket (NumBuckets-1)
	long.Histogram("h").Observe((1 << 63) - 1) // one bucket below
	long.Histogram("empty").Observe(5)         // series absent on the other side
	agg := NewRegistry()
	agg.Merge(short.Snapshot()) // short Buckets slice first...
	agg.Merge(long.Snapshot())  // ...then one trimmed far longer
	agg.Merge(NewRegistry().Snapshot())

	h := agg.Snapshot().Histograms["h"]
	if h.Count != 4 || h.Max != 1<<63 {
		t.Fatalf("merged histogram = %+v", h)
	}
	if len(h.Buckets) != NumBuckets {
		t.Fatalf("bucket slice trimmed to %d, want full %d (top bucket occupied)", len(h.Buckets), NumBuckets)
	}
	for i, want := range map[int]uint64{0: 1, 1: 1, NumBuckets - 2: 1, NumBuckets - 1: 1} {
		if h.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, h.Buckets[i], want)
		}
	}
	// Merging the larger max first then a smaller one must keep the larger.
	rev := NewRegistry()
	rev.Merge(long.Snapshot())
	rev.Merge(short.Snapshot())
	if got := rev.Snapshot().Histograms["h"].Max; got != 1<<63 {
		t.Errorf("reverse-order merge max = %d, want %d", got, uint64(1)<<63)
	}
	if e := agg.Snapshot().Histograms["empty"]; e.Count != 1 || e.Sum != 5 {
		t.Errorf("one-sided series merged to %+v", e)
	}
}

// TestDiffDisjointAndHistogramCounts: diffs over snapshots with disjoint
// series report one-sided entries with the correct sign, and histogram
// series diff by count.
func TestDiffDisjointAndHistogramCounts(t *testing.T) {
	a := NewRegistry()
	a.Counter("only.a").Add(3)
	a.Histogram("h").Observe(10)
	a.Histogram("h").Observe(20)
	b := NewRegistry()
	b.Counter("only.b").Add(7)
	b.Gauge("g").Set(-4)
	b.Histogram("h").Observe(99)
	b.Histogram("only.b.h").Observe(1)

	d := a.Snapshot().Diff(b.Snapshot())
	want := map[string]float64{
		"only.a": 3, "only.b": -7, "g": 4,
		"h.count": 1, "only.b.h.count": -1,
	}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("diff[%q] = %v, want %v", k, d[k], v)
		}
	}
	if d := (*Snapshot)(nil).Diff(b.Snapshot()); d != nil {
		t.Error("nil snapshot diff should be nil")
	}
}

func TestSnapshotValueSeriesDiff(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(4)
	r.Gauge("g").Set(-2)
	r.Histogram("h").Observe(10)
	s := r.Snapshot()

	if v, ok := s.Value("c"); !ok || v != 4 {
		t.Errorf("Value(c) = %f, %v", v, ok)
	}
	if v, ok := s.Value("g"); !ok || v != -2 {
		t.Errorf("Value(g) = %f, %v", v, ok)
	}
	if v, ok := s.Value("h"); !ok || v != 10 {
		t.Errorf("Value(h) = %f, %v", v, ok)
	}
	if _, ok := s.Value("missing"); ok {
		t.Error("Value(missing) reported ok")
	}
	if got := s.Series(); len(got) != 3 || got[0] != "c" || got[1] != "g" || got[2] != "h" {
		t.Errorf("Series = %v", got)
	}

	b := NewRegistry()
	b.Counter("c").Add(1)
	b.Counter("only_base").Add(9)
	b.Histogram("h").Observe(1)
	b.Histogram("h").Observe(2)
	base := b.Snapshot()

	d := s.Diff(base)
	if d["c"] != 3 {
		t.Errorf("diff c = %f, want 3", d["c"])
	}
	if d["only_base"] != -9 {
		t.Errorf("diff only_base = %f, want -9", d["only_base"])
	}
	if d["g"] != -2 {
		t.Errorf("diff g = %f, want -2", d["g"])
	}
	if d["h.count"] != -1 {
		t.Errorf("diff h.count = %f, want -1", d["h.count"])
	}
	if s.Diff(nil) != nil {
		t.Error("Diff(nil) should be nil")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("tlb.l2.hits").Add(12)
	r.Histogram("iommu.latency").Observe(400)
	out, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("tlb.l2.hits") != 12 || back.Histograms["iommu.latency"].Count != 1 {
		t.Errorf("round-trip = %+v", back)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("tlb.l2.hits").Add(3)
	r.Gauge("iommu.queue.depth").Set(-1)
	h := r.Histogram("noc.hops")
	h.Observe(1)
	h.Observe(6)
	text := r.Snapshot().Prometheus()

	for _, want := range []string{
		"# TYPE hdpat_tlb_l2_hits counter\nhdpat_tlb_l2_hits 3\n",
		"# TYPE hdpat_iommu_queue_depth gauge\nhdpat_iommu_queue_depth -1\n",
		"# TYPE hdpat_noc_hops histogram\n",
		"hdpat_noc_hops_bucket{le=\"+Inf\"} 2\n",
		"hdpat_noc_hops_sum 7\nhdpat_noc_hops_count 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// Cumulative buckets must be non-decreasing and end at the count.
	var last uint64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "hdpat_noc_hops_bucket") {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Errorf("cumulative bucket decreased: %q", line)
		}
		last = v
	}
	if last != 2 {
		t.Errorf("final cumulative bucket = %d, want 2", last)
	}
}

// TestConcurrentUpdatesAndSnapshots drives writers and snapshot readers in
// parallel; run under -race this proves live scraping is safe. The merges
// fold in a fixed side snapshot, not r's own: merging a registry into
// itself doubles every counter, which overflows to 0 after 64 rounds.
func TestConcurrentUpdatesAndSnapshots(t *testing.T) {
	r := NewRegistry()
	side := NewRegistry()
	side.Counter("c").Inc()
	side.Gauge("g").Set(1)
	side.Histogram("h").Observe(1)
	extra := side.Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h")
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(int64(i))
				g.Max(int64(i))
				h.Observe(uint64(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s := r.Snapshot()
			_ = s.Prometheus()
			r.Merge(extra) // merging while writing must also be safe
		}
	}()
	wg.Wait()
	if got := r.Counter("c").Value(); got != 4000+100 {
		t.Errorf("counter = %d, want 4100 (4 writers x 1000 + 100 merges)", got)
	}
	if got := r.Histogram("h").Count(); got != 4000+100 {
		t.Errorf("histogram count = %d, want 4100", got)
	}
}

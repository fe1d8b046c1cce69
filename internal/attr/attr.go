// Package attr is the per-request latency attribution layer: a lifecycle
// ledger that stitches the tracer's typed spans (request, queue, walk, hop)
// into complete translation timelines at simulation time — no post-hoc trace
// parsing — and reduces them online into per-stage cycle breakdowns,
// per-link NoC heatmaps and sampled time series.
//
// The Collector implements the trace.Sink interface structurally; wiring is
// one trace.Attach call in the wafer builder. Attribution is strictly
// passive: the collector only observes spans and sampler probes, never
// schedules events or mutates simulator state, so an attributed run is
// byte-identical to a plain one (asserted by the public determinism tests).
//
// # Stage taxonomy and exact accounting
//
// Every remote translation's end-to-end latency (request issue at the GMMU
// boundary to completion — exactly the cycles in gpm.Stats.RemoteLatencySum)
// decomposes into four stages:
//
//   - admission: residency in the IOMMU admission stage (pre-queue)
//   - pwq:       residency in the bounded PW-queue
//   - walk:      page-table walker occupancy at the IOMMU
//   - wire:      everything else — NoC hops, peer probes, port contention,
//     redirect detours — computed as the exact remainder
//
// Because wire is the remainder, the identity
//
//	total == admission + pwq + walk + wire
//
// holds per request and in aggregate, making the breakdown an exact
// accounting of the existing latency counters rather than an estimate
// (TestBreakdownExactAccounting). Percentiles are estimated from log2
// histogram buckets with linear interpolation; sums, counts and the
// stage shares are exact.
package attr

import (
	"sort"

	"hdpat/internal/metrics"
	"hdpat/internal/xlat"
)

// Stage names, in presentation order. Total is the end-to-end request
// latency; the other four sum to it exactly.
const (
	StageAdmission = "admission"
	StagePWQ       = "pwq"
	StageWalk      = "walk"
	StageWire      = "wire"
	StageTotal     = "total"
)

// StageOrder lists the component stages in presentation order.
var StageOrder = []string{StageAdmission, StagePWQ, StageWalk, StageWire}

// DefaultWindow is the sampler period, in cycles, when Config.Window is 0.
const DefaultWindow = 8192

// Config parameterises attribution for one run.
type Config struct {
	// Window is the sampling period for queue-depth and link-utilisation
	// time series, in cycles. 0 means DefaultWindow.
	Window uint64
}

// Dist is an online distribution: exact count/sum/min/max plus log2 buckets
// (bucket 0 holds only zero, bucket i >= 1 holds [2^(i-1), 2^i)) for
// percentile estimation.
type Dist struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Observe adds one value.
func (d *Dist) Observe(v uint64) {
	i := metrics.Log2Bucket(v)
	for len(d.Buckets) <= i {
		d.Buckets = append(d.Buckets, 0)
	}
	d.Buckets[i]++
	if d.Count == 0 || v < d.Min {
		d.Min = v
	}
	if v > d.Max {
		d.Max = v
	}
	d.Count++
	d.Sum += v
}

// Mean returns the exact mean, or 0 with no observations.
func (d *Dist) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.Sum) / float64(d.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the covering log2 bucket, clamped to the exact [Min, Max].
func (d *Dist) Quantile(q float64) float64 {
	if d.Count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(d.Min)
	}
	if q >= 1 {
		return float64(d.Max)
	}
	rank := q * float64(d.Count)
	var cum float64
	for i, n := range d.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := metrics.BucketRange(i)
			v := float64(lo) + (rank-cum)/float64(n)*float64(hi-lo)
			if v < float64(d.Min) {
				v = float64(d.Min)
			}
			if v > float64(d.Max) {
				v = float64(d.Max)
			}
			return v
		}
		cum = next
	}
	return float64(d.Max)
}

// TLBLevel summarises one translation-cache level of the hierarchy.
type TLBLevel struct {
	Level   string  `json:"level"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// LinkStat is one directed mesh link's traffic and occupancy over a run.
// Deflections counts hops this link carried that were misroutes under
// bufferless deflection routing; identically 0 (and omitted from JSON)
// under XY, so XY artifacts keep their exact bytes.
type LinkStat struct {
	X           int     `json:"x"`
	Y           int     `json:"y"`
	Dir         string  `json:"dir"`
	Messages    uint64  `json:"messages"`
	Bytes       uint64  `json:"bytes"`
	Busy        uint64  `json:"busy_cycles"`
	Util        float64 `json:"utilization"`      // Busy / run cycles
	PeakUtil    float64 `json:"peak_window_util"` // max per-window busy delta / window
	Deflections uint64  `json:"deflections,omitempty"`
}

// Sample is one point of a sampled time series.
type Sample struct {
	At    uint64  `json:"at"`
	Value float64 `json:"value"`
}

// Breakdown is the finished attribution of one run: where every remote
// translation cycle went, per stage, per serving source, per TLB level and
// per mesh link.
type Breakdown struct {
	Scheme    string `json:"scheme"`
	Benchmark string `json:"benchmark"`
	Cycles    uint64 `json:"cycles"`
	Window    uint64 `json:"window"`

	// Requests is the number of completed remote translations attributed.
	Requests uint64 `json:"requests"`
	// Unfinished counts ledger entries that saw stage spans but no request
	// completion (in-flight at cutoff, or walks racing a peer completion).
	Unfinished uint64 `json:"unfinished"`
	// Clipped counts requests whose observed stage cycles exceeded the
	// end-to-end latency — always 0 in a well-formed trace; nonzero flags a
	// span-emission bug rather than a property of the workload.
	Clipped uint64 `json:"clipped"`
	// LateSpans counts queue/walk spans that arrived after their request had
	// already completed — the dispatch skip path emits the residency of a
	// request answered elsewhere while it queued. Late spans are counted,
	// never stitched: the request's breakdown was finalised at completion,
	// so stitching would corrupt the exact accounting.
	LateSpans uint64 `json:"late_spans"`
	// Migrations is always zero: the simulator has no page migration. The
	// field stays because every committed digest and hdpatd artifact
	// contains it.
	Migrations uint64 `json:"migrations"`

	// Stages maps StageAdmission/StagePWQ/StageWalk/StageWire/StageTotal to
	// their distributions. The four component sums add up to the total sum
	// exactly (when Clipped == 0).
	Stages map[string]*Dist `json:"stages"`
	// Sources counts completed requests by serving source (xlat.Source
	// names: "iommu", "peer", ...).
	Sources map[string]uint64 `json:"sources"`
	// TLB lists cache levels in hierarchy order (l1, l2, ll, aux).
	TLB []TLBLevel `json:"tlb,omitempty"`
	// Links lists active mesh links in (y, x, dir) order.
	Links []LinkStat `json:"links,omitempty"`
	// Series holds the sampled time series ("iommu.queue_depth",
	// "iommu.walkers_busy", "noc.busy_delta"), one point per window.
	Series map[string][]Sample `json:"series,omitempty"`
}

// Stage returns the named stage distribution, never nil.
func (b *Breakdown) Stage(name string) *Dist {
	if d := b.Stages[name]; d != nil {
		return d
	}
	return &Dist{}
}

// Diff returns per-metric res − base deltas between two breakdowns:
// "<stage>.mean" and "<stage>.p95" for every stage plus total, and
// "requests". Negative stage deltas mean res is faster there.
func Diff(res, base *Breakdown) map[string]float64 {
	d := make(map[string]float64)
	for _, s := range append(append([]string{}, StageOrder...), StageTotal) {
		d[s+".mean"] = res.Stage(s).Mean() - base.Stage(s).Mean()
		d[s+".p95"] = res.Stage(s).Quantile(0.95) - base.Stage(s).Quantile(0.95)
	}
	d["requests"] = float64(res.Requests) - float64(base.Requests)
	return d
}

// pending is one in-flight request's accumulated stage cycles.
type pending struct {
	admission, pwq, walk uint64
}

// linkKey identifies one directed mesh link.
type linkKey struct {
	x, y int
	dir  string
}

// LinkVisitor receives one directed link's coordinates, direction and
// monotonically accumulated busy cycles.
type LinkVisitor func(x, y int, dir string, busy uint64)

// Collector is the live attribution ledger. It implements trace.Sink
// structurally (OnRequest/OnQueue/OnWalk/OnHop) and additionally
// receives periodic Sample calls from the engine sampler. It is not
// goroutine-safe: like the tracer state it observes, it belongs to one
// simulation engine.
type Collector struct {
	cfg Config

	open    map[uint64]*pending
	closed  map[uint64]struct{}
	stages  map[string]*Dist
	sources map[string]uint64
	tlb     map[string]*TLBLevel
	clipped uint64
	late    uint64

	// Per-link aggregates in structure-of-arrays form: linkIdx maps a
	// directed link to its slot in the parallel columns below. One small
	// map plus six flat slices replaces the four map[linkKey] structures
	// the ledger used to carry — on a giant wafer the columns are one
	// allocation each and release in one drop after Finalize.
	linkIdx   map[linkKey]int32
	linkMsgs  []uint64
	linkBytes []uint64
	linkPrev  []uint64 // busy counter at last sweep
	linkPeak  []uint64 // max per-window busy delta
	linkFinal []uint64 // busy counter at the final probe sweep
	linkDefl  []uint64 // deflected hops carried (bufferless routing)

	queueProbe   func() int
	walkersProbe func() int
	linkProbe    func(LinkVisitor)
	series       map[string][]Sample

	// finalized marks that Finalize has run and released the working
	// ledger. The run is over, so any span still arriving is by definition
	// late: it is counted, never stitched — the same contract late spans
	// had before, without keeping the per-request closed set alive.
	finalized bool
}

// NewCollector returns an empty ledger with the given configuration.
func NewCollector(cfg Config) *Collector {
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	c := &Collector{
		cfg:     cfg,
		open:    make(map[uint64]*pending),
		closed:  make(map[uint64]struct{}),
		stages:  make(map[string]*Dist),
		sources: make(map[string]uint64),
		linkIdx: make(map[linkKey]int32),
		tlb:     make(map[string]*TLBLevel),
		series:  make(map[string][]Sample),
	}
	for _, s := range StageOrder {
		c.stages[s] = &Dist{}
	}
	c.stages[StageTotal] = &Dist{}
	return c
}

// Window returns the effective sampling period.
func (c *Collector) Window() uint64 { return c.cfg.Window }

// Probes wires the sampler's read-only state probes: combined IOMMU queue
// depth, busy walker count, and a per-link busy-cycle walk. Any may be nil.
func (c *Collector) Probes(queueDepth, walkersBusy func() int, links func(LinkVisitor)) {
	c.queueProbe = queueDepth
	c.walkersProbe = walkersBusy
	c.linkProbe = links
}

func (c *Collector) get(req uint64) *pending {
	p := c.open[req]
	if p == nil {
		p = &pending{}
		c.open[req] = p
	}
	return p
}

// OnQueue accumulates one queue-stage residency onto the request's ledger
// entry (trace.Sink). A span for an already-completed request (the dispatch
// skip path) is counted as late rather than opening a dangling entry.
func (c *Collector) OnQueue(stage string, start, end uint64, req uint64) {
	if c.finalized {
		c.late++
		return
	}
	if _, done := c.closed[req]; done {
		c.late++
		return
	}
	p := c.get(req)
	switch stage {
	case "iommu.admission":
		p.admission += end - start
	case "iommu.pwq":
		p.pwq += end - start
	}
}

// OnWalk accumulates one walker occupancy onto the request's ledger entry
// (trace.Sink). Like OnQueue, a span postdating the request's completion is
// counted late, not stitched.
func (c *Collector) OnWalk(start, end uint64, req, vpn uint64) {
	if c.finalized {
		c.late++
		return
	}
	if _, done := c.closed[req]; done {
		c.late++
		return
	}
	c.get(req).walk += end - start
}

// OnHop accumulates one link traversal into the heatmap (trace.Sink). Hops
// are not attributed to individual requests — the mesh carries responses,
// probes and data traffic under one span type — so per-request wire time is
// the exact remainder computed at completion instead.
func (c *Collector) OnHop(start, end uint64, fromX, fromY, toX, toY, size int, deflected bool) {
	if c.finalized {
		return
	}
	var dir string
	switch {
	case toX == fromX+1:
		dir = "e"
	case toX == fromX-1:
		dir = "w"
	case toY == fromY+1:
		dir = "s"
	default:
		dir = "n"
	}
	i := c.linkSlot(linkKey{fromX, fromY, dir})
	c.linkMsgs[i]++
	c.linkBytes[i] += uint64(size)
	if deflected {
		c.linkDefl[i]++
	}
}

// linkSlot returns the SoA column index for link k, appending a zeroed
// slot across all columns on first sight.
func (c *Collector) linkSlot(k linkKey) int32 {
	if i, ok := c.linkIdx[k]; ok {
		return i
	}
	i := int32(len(c.linkMsgs))
	c.linkIdx[k] = i
	c.linkMsgs = append(c.linkMsgs, 0)
	c.linkBytes = append(c.linkBytes, 0)
	c.linkPrev = append(c.linkPrev, 0)
	c.linkPeak = append(c.linkPeak, 0)
	c.linkFinal = append(c.linkFinal, 0)
	c.linkDefl = append(c.linkDefl, 0)
	return i
}

// OnRequest finalises one request's ledger entry (trace.Sink): the
// end-to-end latency becomes the total, accumulated stages are recorded, and
// wire is the exact remainder.
func (c *Collector) OnRequest(start, end uint64, req uint64, source, gpm int) {
	if c.finalized {
		c.late++
		return
	}
	total := end - start
	var adm, pwq, walk uint64
	if p := c.open[req]; p != nil {
		adm, pwq, walk = p.admission, p.pwq, p.walk
		delete(c.open, req)
	}
	c.closed[req] = struct{}{}
	var wire uint64
	if svc := adm + pwq + walk; svc <= total {
		wire = total - svc
	} else {
		c.clipped++
	}
	c.stages[StageAdmission].Observe(adm)
	c.stages[StagePWQ].Observe(pwq)
	c.stages[StageWalk].Observe(walk)
	c.stages[StageWire].Observe(wire)
	c.stages[StageTotal].Observe(total)
	c.sources[xlat.Source(source).String()]++
}

// AddTLB accumulates one cache instance's hits and misses into the named
// level ("l1", "l2", "ll", "aux").
func (c *Collector) AddTLB(level string, hits, misses uint64) {
	t := c.tlb[level]
	if t == nil {
		t = &TLBLevel{Level: level}
		c.tlb[level] = t
	}
	t.Hits += hits
	t.Misses += misses
}

// Sample records one window boundary: queue depth and walker occupancy as
// point samples, and per-link busy-cycle deltas (feeding peak-window
// utilisation and the aggregate noc.busy_delta series). Called by the engine
// sampler; strictly read-only against simulator state.
func (c *Collector) Sample(at uint64) {
	if c.finalized {
		return
	}
	if c.queueProbe != nil {
		c.series["iommu.queue_depth"] = append(c.series["iommu.queue_depth"],
			Sample{At: at, Value: float64(c.queueProbe())})
	}
	if c.walkersProbe != nil {
		c.series["iommu.walkers_busy"] = append(c.series["iommu.walkers_busy"],
			Sample{At: at, Value: float64(c.walkersProbe())})
	}
	if c.linkProbe != nil {
		c.series["noc.busy_delta"] = append(c.series["noc.busy_delta"],
			Sample{At: at, Value: float64(c.sweepLinks())})
	}
}

// sweepLinks reads every link's monotonic busy counter, updating per-link
// window deltas and peaks; it returns the total busy delta since last sweep.
func (c *Collector) sweepLinks() uint64 {
	var total uint64
	c.linkProbe(func(x, y int, dir string, busy uint64) {
		i := c.linkSlot(linkKey{x, y, dir})
		d := busy - c.linkPrev[i]
		c.linkPrev[i] = busy
		if d > c.linkPeak[i] {
			c.linkPeak[i] = d
		}
		total += d
	})
	return total
}

// Finalize reduces the ledger into a Breakdown. cycles is the run length
// (Result.Cycles), the denominator for link utilisation. Busy is the exact
// end-of-run occupancy the link probe reports (zero with no probe wired).
func (c *Collector) Finalize(scheme, benchmark string, cycles uint64) *Breakdown {
	b := &Breakdown{
		Scheme:     scheme,
		Benchmark:  benchmark,
		Cycles:     cycles,
		Window:     c.cfg.Window,
		Requests:   c.stages[StageTotal].Count,
		Unfinished: uint64(len(c.open)),
		Clipped:    c.clipped,
		LateSpans:  c.late,
		Stages:     c.stages,
		Sources:    c.sources,
		Series:     c.series,
	}

	// Final link occupancy: one last sweep captures the trailing partial
	// window, then one probe walk stores end-of-run busy into the final
	// column. After that, linkIdx covers every link that saw hops or was
	// probed, so assembling stats is one walk over the index.
	if c.linkProbe != nil {
		c.sweepLinks()
		c.linkProbe(func(x, y int, dir string, busy uint64) {
			c.linkFinal[c.linkSlot(linkKey{x, y, dir})] = busy
		})
	}
	for k, i := range c.linkIdx {
		ls := LinkStat{
			X: k.x, Y: k.y, Dir: k.dir,
			Messages: c.linkMsgs[i], Bytes: c.linkBytes[i],
			Busy:        c.linkFinal[i],
			Deflections: c.linkDefl[i],
		}
		if ls.Messages == 0 && ls.Busy == 0 {
			continue
		}
		if cycles > 0 {
			ls.Util = float64(ls.Busy) / float64(cycles)
		}
		if c.cfg.Window > 0 {
			ls.PeakUtil = float64(c.linkPeak[i]) / float64(c.cfg.Window)
		}
		b.Links = append(b.Links, ls)
	}
	sort.Slice(b.Links, func(i, j int) bool {
		a, z := b.Links[i], b.Links[j]
		if a.Y != z.Y {
			return a.Y < z.Y
		}
		if a.X != z.X {
			return a.X < z.X
		}
		return a.Dir < z.Dir
	})

	// TLB levels in hierarchy order, unknown levels alphabetically after.
	order := map[string]int{"l1": 0, "l2": 1, "ll": 2, "aux": 3}
	for _, t := range c.tlb {
		t.HitRate = 0
		if tot := t.Hits + t.Misses; tot > 0 {
			t.HitRate = float64(t.Hits) / float64(tot)
		}
		b.TLB = append(b.TLB, *t)
	}
	sort.Slice(b.TLB, func(i, j int) bool {
		oi, iok := order[b.TLB[i].Level]
		oj, jok := order[b.TLB[j].Level]
		if iok != jok {
			return iok
		}
		if iok && jok && oi != oj {
			return oi < oj
		}
		return b.TLB[i].Level < b.TLB[j].Level
	})

	// The Breakdown now owns everything the caller needs; drop the working
	// ledger so a long-lived process (hdpatd running back-to-back sweeps)
	// does not hold the per-request closed set and per-link columns at peak
	// until the next run's collector replaces this one. Stages, sources and
	// series stay: the Breakdown aliases them.
	c.finalized = true
	c.open = nil
	c.closed = nil
	c.linkIdx = nil
	c.linkMsgs, c.linkBytes, c.linkDefl = nil, nil, nil
	c.linkPrev, c.linkPeak, c.linkFinal = nil, nil, nil
	return b
}

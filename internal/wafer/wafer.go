// Package wafer assembles a complete simulated system — mesh, GPMs, IOMMU,
// placement, translation scheme, workload traces — runs it to completion
// and returns a Result with everything the evaluation figures need.
package wafer

import (
	"context"
	"errors"
	"fmt"

	"hdpat/internal/attr"
	"hdpat/internal/check"
	"hdpat/internal/config"
	"hdpat/internal/core"
	"hdpat/internal/geom"
	"hdpat/internal/gpm"
	"hdpat/internal/iommu"
	"hdpat/internal/metrics"
	"hdpat/internal/noc"
	"hdpat/internal/schemes"
	"hdpat/internal/sim"
	"hdpat/internal/stats"
	"hdpat/internal/tlb"
	"hdpat/internal/trace"
	"hdpat/internal/vm"
	"hdpat/internal/workload"
	"hdpat/internal/xlat"
)

// ErrUnknownScheme is returned (wrapped with the offending name) when a
// scheme is not one of SchemeNames(); match it with errors.Is.
var ErrUnknownScheme = errors.New("unknown scheme")

// SchemeNames lists every runnable scheme.
func SchemeNames() []string {
	return []string{
		"baseline", "route", "concentric", "distributed", "cluster",
		"redirect", "prefetch", "hdpat", "transfw", "valkyrie", "barre",
		"iommutlb", "ownerfw",
	}
}

// ConfigFor returns base with its IOMMU configured as the named scheme
// requires (redirection table, revisit, prefetch degree). Callers may
// further override individual fields afterwards (sensitivity sweeps).
func ConfigFor(scheme string, base config.System) (config.System, error) {
	io := base.IOMMU
	io.RedirectEntries = 0
	io.Revisit = false
	io.PrefetchDegree = 1
	io.UseTLB = false
	switch scheme {
	case "baseline", "route", "concentric", "distributed", "cluster", "valkyrie", "ownerfw":
	case "transfw":
		// Remote forwarding short-circuits the cross-wafer pointer chases
		// of the walk's leaf levels (see schemes.TransFW).
		io.WalkCycles = io.WalkCycles * 3 / 5
	case "barre":
		io.Revisit = true
	case "redirect":
		io.RedirectEntries = 1024
		io.Revisit = true
	case "prefetch":
		io.PrefetchDegree = 4
	case "hdpat":
		io.RedirectEntries = 1024
		io.Revisit = true
		io.PrefetchDegree = 4
	case "iommutlb":
		io.UseTLB = true
		io.Revisit = true
		io.PrefetchDegree = 4
	default:
		return base, fmt.Errorf("wafer: %w %q", ErrUnknownScheme, scheme)
	}
	base.IOMMU = io
	return base, nil
}

// Options parameterise one run.
type Options struct {
	Scheme    string
	Benchmark workload.Benchmark
	// OpsBudget is the approximate per-CU operation count (default 96).
	OpsBudget int
	Seed      int64
	// QueueWindow, when nonzero, attaches a max-depth IOMMU queue series
	// with this window (Fig 4).
	QueueWindow uint64
	// Hooks see every request arriving at the IOMMU, in order
	// (characterisation figures attach trackers). Replaces the former
	// single-callback Observer field.
	Hooks []iommu.RequestHook
	// Metrics, when non-nil, has every component report into it
	// (sim.*, noc.*, tlb.*, iommu.*, gpm.* series); the run's
	// final snapshot lands on Result.Metrics. Nil costs one branch per
	// instrumented hot-path site.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives cycle-domain spans (IOMMU walks and
	// queueing, NoC hops). Tracing only observes; a traced run
	// is cycle-for-cycle identical to an untraced one.
	Trace *trace.Tracer
	// Attribution, when non-nil, attaches the per-request latency ledger
	// (internal/attr): the run's Breakdown lands on Result.Breakdown. Works
	// with or without Trace; like the other observers it never perturbs
	// results.
	Attribution *attr.Config
	// Invariants attaches the internal/check invariant checker through the
	// observation seams (request hook, trace sink, sampler, link visitor):
	// conservation violations come back as errors naming the invariant,
	// request and cycle, joined onto the run error. Every remote
	// translation is also checked against the global page table
	// (xlat.bad-pfn). Results are byte-identical with the checker on or off.
	Invariants bool
	// Routing, when non-empty, overrides cfg.NoC.Routing for this run:
	// noc.RoutingXY (dimension-ordered, minimal) or noc.RoutingDeflect
	// (bufferless deflection). Validated with the configuration.
	Routing string
}

// Result is everything a run produces.
type Result struct {
	Scheme    string
	Benchmark string
	Cycles    sim.VTime

	GPMCoords []geom.Coord
	GPMFinish []sim.VTime
	GPMStats  []gpm.Stats

	IOMMU iommu.Stats
	NoC   noc.Stats

	QueueSeries *stats.TimeSeries

	TotalOps uint64

	// Events is the number of discrete events the kernel dispatched for
	// this run — the denominator of events-per-second throughput
	// reporting (see docs/performance.md).
	Events uint64

	// AuxLen and AuxStats aggregate the auxiliary caches across GPMs at the
	// end of the run (diagnostics).
	AuxLen   int
	AuxStats tlb.Stats

	// Migration is always zero: the simulator has no page migration. The
	// field stays because hdpatbench/digest.go prints it and every committed
	// digest and hdpatd artifact contains it.
	Migration MigrationStats

	// Metrics is the run's final registry snapshot when Options.Metrics was
	// set (nil otherwise).
	Metrics *metrics.Snapshot

	// Breakdown is the per-request latency attribution when
	// Options.Attribution was set (nil otherwise).
	Breakdown *attr.Breakdown
}

// MigrationStats is the shape of Result.Migration, kept field for field so
// digests and artifacts stay byte-identical.
type MigrationStats struct {
	Migrations   uint64
	BytesMoved   uint64
	Dropped      uint64
	SkippedShare uint64
	SkippedBusy  uint64
}

// RemoteBySource aggregates per-source remote translation counts.
func (r Result) RemoteBySource() [xlat.NumSources]uint64 {
	var out [xlat.NumSources]uint64
	for i := range r.GPMStats {
		for s := 0; s < xlat.NumSources; s++ {
			out[s] += r.GPMStats[i].RemoteBySource[s]
		}
	}
	return out
}

// RemoteRequests returns total remote translation requests.
func (r Result) RemoteRequests() uint64 {
	var n uint64
	for i := range r.GPMStats {
		n += r.GPMStats[i].RemoteRequests
	}
	return n
}

// OffloadFraction returns the share of remote translations served without
// an IOMMU walk (the paper's 42.1 % metric).
func (r Result) OffloadFraction() float64 {
	by := r.RemoteBySource()
	var off, tot uint64
	for s := 0; s < xlat.NumSources; s++ {
		tot += by[s]
		if xlat.Source(s).Offloaded() {
			off += by[s]
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(off) / float64(tot)
}

// AvgRemoteLatency returns the mean remote translation round-trip in cycles
// (Fig 17).
func (r Result) AvgRemoteLatency() float64 {
	var sum, n uint64
	for i := range r.GPMStats {
		sum += r.GPMStats[i].RemoteLatencySum
		n += r.GPMStats[i].RemoteRequests
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Speedup returns base.Cycles / r.Cycles.
func (r Result) Speedup(base Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// Run builds and executes one simulation. It is RunContext with a
// background context.
func Run(cfg config.System, opts Options) (Result, error) {
	return RunContext(context.Background(), cfg, opts)
}

// ctxCheckInterval is how many simulated cycles RunContext executes between
// cancellation checks. Small enough that cancellation lands promptly even on
// short runs; large enough that the per-check cost vanishes in the noise.
const ctxCheckInterval = 1 << 16

// maxCycles aborts runaway simulations: a run whose GPMs have not all
// finished by this cycle fails with a cycle-limit error.
const maxCycles sim.VTime = 200_000_000

// runEngine executes events with time <= limit, checking ctx between
// slices of at most ctxCheckInterval cycles. Slicing does not perturb event
// order, so results are identical to a single RunUntil(limit) call.
func runEngine(ctx context.Context, eng *sim.Engine, limit sim.VTime) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		next, ok := eng.NextTime()
		if !ok {
			return nil
		}
		if next > limit {
			// The run logically advanced to limit even though no event at or
			// before it remains: close out any sampler windows in
			// (last event, limit] that the sliced RunUntil calls never saw.
			eng.FlushSamples(limit)
			return nil
		}
		slice := next + ctxCheckInterval
		if slice > limit || slice < next { // min(limit, ...), overflow-safe
			slice = limit
		}
		eng.RunUntil(slice)
	}
}

// RunContext builds and executes one simulation, aborting with ctx.Err()
// when ctx is cancelled mid-run (checked between engine slices; a cancelled
// run returns a zero Result).
func RunContext(ctx context.Context, cfg config.System, opts Options) (Result, error) {
	if opts.Routing != "" {
		cfg.NoC.Routing = opts.Routing
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	// Keep footprint:capacity ratios at their Table II values (see
	// config.ApplyScale).
	cfg = cfg.ApplyScale()
	if opts.OpsBudget <= 0 {
		opts.OpsBudget = 96
	}
	if opts.Scheme == "" {
		opts.Scheme = "baseline"
	}

	mesh := geom.NewMesh(cfg.MeshW, cfg.MeshH)
	layout := geom.NewLayout(mesh)
	eng := sim.NewEngine()
	network := noc.New(eng, mesh, cfg.NoC)
	numGPMs := mesh.NumGPMs()

	reg := opts.Metrics
	if reg != nil {
		eng.AttachMetrics(reg)
		network.AttachMetrics(reg)
	}
	// The attribution ledger rides the tracer seam: Attach fans typed spans
	// out to the collector (sink-only when no trace output was requested),
	// and the resulting tracer replaces opts.Trace at every component. The
	// invariant checker stacks onto the same seam via the tracer's sink
	// composition.
	tr := opts.Trace
	var coll *attr.Collector
	if opts.Attribution != nil {
		coll = attr.NewCollector(*opts.Attribution)
		tr = trace.Attach(tr, coll)
	}
	var sampleWindow uint64
	if coll != nil {
		sampleWindow = coll.Window()
	}
	var chk *check.Checker
	if opts.Invariants {
		if sampleWindow == 0 {
			sampleWindow = attr.DefaultWindow
		}
		chk = check.New(check.Options{Window: sampleWindow})
		tr = trace.Attach(tr, chk)
	}
	network.Trace = tr

	placement := vm.NewPlacement(numGPMs, cfg.PageSize)
	regions := map[string]vm.Region{}
	for _, rs := range opts.Benchmark.Regions(cfg.WorkloadScale, numGPMs, cfg.PageSize) {
		regions[rs.Name] = placement.Alloc(rs.Name, rs.Pages, 0)
	}

	// Build GPMs. Filter seeding is deferred: the closure enumerates the GPM's local
	// pages only if the GPM ever materializes, so idle tiles of a giant
	// wafer never build a VPN list or a populated cuckoo table. Region
	// ownership is static, so a deferred seed observes the same pages an
	// eager one would.
	gpms := make([]*gpm.GPM, numGPMs)
	for i, c := range mesh.GPMs() {
		gpms[i] = gpm.New(eng, i, c, cfg.GPM, cfg.PageSize, placement.Local(i))
		id := i
		gpms[i].SeedFilter(func(g *gpm.GPM) {
			var vpns []vm.VPN
			for _, r := range regions {
				lo, hi := r.OwnerSlice(id, numGPMs)
				for p := lo; p < hi; p++ {
					vpns = append(vpns, r.Start+vm.VPN(p))
				}
			}
			g.ReseedFilter(0, vpns)
		})
	}

	io := iommu.New(eng, cfg.IOMMU, mesh.CPU, network, placement.Global())
	io.GPMCoord = func(id int) geom.Coord { return gpms[id].Coord }
	io.Trace = tr
	visitLinks := func(v attr.LinkVisitor) {
		network.VisitLinks(func(c geom.Coord, dir string, busy sim.VTime) {
			v(c.X, c.Y, dir, uint64(busy))
		})
	}
	if coll != nil {
		coll.Probes(io.QueueDepth, io.WalkersBusy, visitLinks)
	}
	if chk != nil {
		io.AddHook(chk)
		chk.Probes(visitLinks)
	}
	if coll != nil || chk != nil {
		// Periodic sampler: queue-depth, walker-occupancy and link-busy
		// series once per window, fired between events so the heap and event
		// order are untouched. The collector and checker share one window,
		// so the checker audits exactly the boundaries the series record.
		eng.AttachSampler(sim.VTime(sampleWindow), func(at sim.VTime) {
			if coll != nil {
				coll.Sample(uint64(at))
			}
			if chk != nil {
				chk.Sample(uint64(at))
			}
		})
	}
	if reg != nil {
		io.AttachMetrics(reg)
		for _, g := range gpms {
			g.AttachMetrics(reg)
		}
	}
	if opts.QueueWindow > 0 {
		io.QueueSeries = stats.NewMaxSeries(opts.QueueWindow)
	}
	for _, h := range opts.Hooks {
		io.AddHook(h)
	}

	fabric := &core.Fabric{
		Eng: eng, Mesh: network, Layout: layout,
		GPMs: gpms, IOMMU: io, Placement: placement,
	}
	fabric.Finish()

	scheme, err := buildScheme(opts.Scheme, fabric, cfg.HDPAT)
	if err != nil {
		return Result{}, err
	}
	if chk != nil {
		scheme = &check.Scheme{Inner: scheme, Global: placement.Global(), Checker: chk, Eng: eng}
	}

	// Wire GPMs. The request pool is per run, shared across GPMs: sharing
	// maximises reuse, and scoping it to the run keeps recycled objects
	// away from parallel batch workers (a global pool would hand one
	// worker's recycled request to another while stale readers remain).
	var reqID uint64
	nextID := func() uint64 { reqID++; return reqID }
	reqPool := xlat.NewRequestPool()
	fetch := &fetcher{mesh: network, gpms: gpms}
	for _, g := range gpms {
		g.Remote = scheme
		g.NextReqID = nextID
		g.Trace = tr
		g.ReqPool = reqPool
		g.Fetch = fetch
	}

	// Load traces and start.
	var totalOps uint64
	for i, g := range gpms {
		for cu := 0; cu < cfg.GPM.NumCUs; cu++ {
			tr := opts.Benchmark.Trace(workload.Context{
				Regions: regions, PageSize: cfg.PageSize,
				GPM: i, NumGPMs: numGPMs, CU: cu, NumCUs: cfg.GPM.NumCUs,
				OpsBudget: opts.OpsBudget, Seed: opts.Seed,
			})
			totalOps += uint64(len(tr))
			g.LoadTrace(cu, tr)
		}
	}
	finished := 0
	for _, g := range gpms {
		g.Start(sim.VTime(opts.Benchmark.Gap), func(int, sim.VTime) { finished++ })
	}

	if err := runEngine(ctx, eng, maxCycles); err != nil {
		return Result{}, err
	}
	var runErr error
	if finished < numGPMs {
		runErr = fmt.Errorf("wafer: %s/%s finished %d/%d GPMs by cycle limit %d",
			opts.Scheme, opts.Benchmark.Abbr, finished, numGPMs, maxCycles)
	} else {
		// Drain stragglers (late miss responses etc.) for accurate NoC stats.
		if err := runEngine(ctx, eng, sim.Infinity); err != nil {
			return Result{}, err
		}
	}

	res := Result{
		Scheme: scheme.Name(), Benchmark: opts.Benchmark.Abbr,
		IOMMU: io.Stats, NoC: network.Stats,
		QueueSeries: io.QueueSeries,
		TotalOps:    totalOps,
		Events:      eng.Processed,
	}
	// Structure-of-arrays assembly at exact capacity: one allocation per
	// parallel column, no append growth — at 900+ GPMs the growth slack of
	// three appending slices is real memory.
	res.GPMCoords = make([]geom.Coord, numGPMs)
	res.GPMFinish = make([]sim.VTime, numGPMs)
	res.GPMStats = make([]gpm.Stats, numGPMs)
	for i, g := range gpms {
		res.AuxLen += g.AuxLen()
		as := g.AuxStats()
		res.AuxStats.Hits += as.Hits
		res.AuxStats.Misses += as.Misses
		res.AuxStats.Fills += as.Fills
		res.AuxStats.Evictions += as.Evictions
		res.GPMCoords[i] = g.Coord
		res.GPMFinish[i] = g.Stats.FinishTime
		res.GPMStats[i] = g.Stats
		if g.Stats.FinishTime > res.Cycles {
			res.Cycles = g.Stats.FinishTime
		}
	}
	if reg != nil {
		network.FlushMetrics()
		reg.Gauge("run.cycles").Set(int64(res.Cycles))
		reg.Gauge("run.total_ops").Set(int64(totalOps))
		res.Metrics = reg.Snapshot()
	}
	if coll != nil {
		for _, g := range gpms {
			for level, s := range g.TLBStats() {
				coll.AddTLB(level, s.Hits, s.Misses)
			}
		}
		res.Breakdown = coll.Finalize(res.Scheme, res.Benchmark, uint64(res.Cycles))
	}
	if chk != nil {
		var latSum uint64
		for i := range res.GPMStats {
			latSum += res.GPMStats[i].RemoteLatencySum
		}
		f := check.Final{
			Cycle:       uint64(eng.Now()),
			Settled:     finished == numGPMs,
			QueueDepth:  io.QueueDepth(),
			WalkersBusy: io.WalkersBusy(),
			IOMMU:       io.Stats,
			NoC:         network.Stats,
			ExactHops:   cfg.NoC.Routing != noc.RoutingDeflect,
			RemoteReqs:  res.RemoteRequests(), RemoteLatencySum: latSum,
			Breakdown: res.Breakdown,
		}
		if err := chk.Finish(f); err != nil {
			runErr = errors.Join(runErr, err)
		}
	}
	return res, runErr
}

func buildScheme(name string, f *core.Fabric, h config.HDPAT) (xlat.RemoteTranslator, error) {
	switch name {
	case "baseline":
		return schemes.NewNaive(f), nil
	case "barre":
		return schemes.NewBarre(f), nil
	case "transfw":
		return schemes.NewTransFW(f), nil
	case "ownerfw":
		return schemes.NewOwnerFW(f), nil
	case "valkyrie":
		return schemes.NewValkyrie(f), nil
	case "route":
		return core.NewRoute(f, h), nil
	case "concentric":
		return core.NewConcentric(f, h), nil
	case "distributed":
		return core.NewDistributed(f, h), nil
	case "cluster", "redirect", "prefetch", "hdpat", "iommutlb":
		return core.NewHDPAT(f, h), nil
	}
	return nil, fmt.Errorf("wafer: %w %q", ErrUnknownScheme, name)
}

// auxProbe is a debugging aggregate filled at the end of Run.

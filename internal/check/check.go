// Package check is the opt-in simulation invariant checker: a passive
// observer that rides the existing observation seams — the tracer's typed
// spans (trace.Sink), the IOMMU request hook, the engine's periodic sampler
// and the mesh's link visitor — and cross-checks the simulator's conservation
// laws at run end. It adds no hot-path branches of its own: every signal it
// consumes already exists for metrics, tracing or attribution, so a checked
// run is byte-identical to an unchecked one.
//
// # Invariants
//
// Streaming (checked as spans arrive):
//
//   - request.double-complete: a request's completion span is seen at most
//     once; a duplicate means a lifecycle completed twice.
//   - sampler.lost-window: sampler boundaries arrive strictly in order,
//     exactly one window apart — a gap means time-series windows were
//     silently dropped.
//   - xlat.bad-pfn: via Scheme, every remote translation's completion carries
//     the frame the global page table maps.
//
// At settle (Finish with Final.Settled):
//
//   - request.conservation: completions equal issued remote requests.
//   - request.dropped: every request that reached the IOMMU completed.
//   - iommu.queue-settle: admission+PW-queue depth and busy walkers are zero.
//   - iommu.conservation: every IOMMU submission terminates in exactly one of
//     the six terminal counters (TLB hit, MSHR merge, walk, revisit,
//     redirect, skipped-completed).
//   - noc.byte-hops: NoC ByteHops equals the bytes observed crossing links
//     hop by hop — both sides accrue per actual link traversal, so the law
//     holds for any routing policy, minimal paths or not.
//   - noc.hops-lower-bound: HopsTotal is at least the sum of Manhattan
//     distances over all messages (routing-aware: equality is additionally
//     required, and Deflections must be zero, when Final.ExactHops marks the
//     routing minimal, as XY is).
//   - noc.deflections: the deflected hops observed crossing links equal
//     Stats.Deflections, and the observed hop count equals HopsTotal.
//   - attr.accounting: summed request-span latency equals the GPMs'
//     RemoteLatencySum, and an attached attribution breakdown is exact
//     (stage sums equal the total, nothing clipped or left unfinished).
//   - sampler.lost-window: no boundary at or before the final cycle is
//     missing.
//
// Always (Finish):
//
//   - noc.link-busy: no link's accumulated busy cycles exceed elapsed time.
//
// Violations are collected, not panicked: Finish returns them joined into one
// error (match with errors.Is(err, ErrInvariant)), each naming the invariant,
// the request ID where one applies, and the cycle.
package check

import (
	"errors"
	"fmt"
	"sort"

	"hdpat/internal/attr"
	"hdpat/internal/iommu"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// ErrInvariant is the sentinel every Violation matches via errors.Is.
var ErrInvariant = errors.New("simulation invariant violated")

// maxRecorded bounds how many violations are kept verbatim; the total count
// is always exact.
const maxRecorded = 32

// Violation is one invariant breach.
type Violation struct {
	// Invariant names the broken invariant ("request.double-complete", ...).
	Invariant string
	// Req is the request ID involved, 0 when the invariant is not
	// per-request.
	Req uint64
	// Cycle is the simulated time the violation was detected at.
	Cycle uint64
	// Detail is a human-readable explanation.
	Detail string
}

// Error formats the violation naming the invariant, request and cycle.
func (v Violation) Error() string {
	if v.Req != 0 {
		return fmt.Sprintf("invariant %s: %s (req %d, cycle %d)", v.Invariant, v.Detail, v.Req, v.Cycle)
	}
	return fmt.Sprintf("invariant %s: %s (cycle %d)", v.Invariant, v.Detail, v.Cycle)
}

// Is matches ErrInvariant, so errors.Is works through errors.Join.
func (v Violation) Is(target error) bool { return target == ErrInvariant }

// LinkVisitor receives one directed link's coordinates, direction label and
// accumulated busy cycles (the shape of noc.Mesh.VisitLinks).
type LinkVisitor func(x, y int, dir string, busy uint64)

// Options parameterise a Checker.
type Options struct {
	// Window is the expected sampler period in cycles; 0 disables the
	// sampler-coverage invariant.
	Window uint64
}

// Final is the end-of-run state Finish cross-checks the streamed
// observations against.
type Final struct {
	// Cycle is the engine clock at the end of the run (after draining).
	Cycle uint64
	// Settled is false when a cycle limit cut the run with work in flight;
	// conservation checks that only hold at quiescence are skipped then.
	Settled bool
	// QueueDepth and WalkersBusy are the IOMMU's waiting and in-service
	// counts at the end of the run.
	QueueDepth  int
	WalkersBusy int
	// IOMMU and NoC are the final component stats.
	IOMMU iommu.Stats
	NoC   noc.Stats
	// ExactHops marks the routing policy minimal (XY): every message takes
	// exactly Manhattan(src, dst) hops, so HopsTotal must equal
	// ManhattanTotal and no hop may be deflected. Leave false for
	// non-minimal policies (deflection), where only the lower bound holds.
	ExactHops bool
	// RemoteReqs and RemoteLatencySum aggregate gpm.Stats across GPMs.
	RemoteReqs       uint64
	RemoteLatencySum uint64
	// Breakdown, when non-nil, is the attribution result to check for
	// exactness.
	Breakdown *attr.Breakdown
}

// Checker accumulates observations from the seams it is attached to. It is
// not goroutine-safe: like the tracer and collector it belongs to one engine.
type Checker struct {
	window uint64

	completed  map[uint64]struct{}
	arrived    map[uint64]struct{}
	nComplete  uint64
	latencySum uint64
	hopBytes   uint64
	hopCount   uint64
	hopDefl    uint64
	nextSample uint64

	linkProbe func(LinkVisitor)

	violations []Violation
	nViolated  uint64
}

// New returns an empty checker.
func New(o Options) *Checker {
	return &Checker{
		window:     o.Window,
		nextSample: o.Window,
		completed:  make(map[uint64]struct{}),
		arrived:    make(map[uint64]struct{}),
	}
}

// violate records one violation (bounded; the count stays exact).
func (c *Checker) violate(inv string, req, cycle uint64, format string, args ...any) {
	c.nViolated++
	if len(c.violations) < maxRecorded {
		c.violations = append(c.violations, Violation{Invariant: inv, Req: req, Cycle: cycle, Detail: fmt.Sprintf(format, args...)})
	}
}

// Violations returns the recorded violations (capped) and the exact total.
func (c *Checker) Violations() ([]Violation, uint64) {
	return c.violations, c.nViolated
}

// Err joins the recorded violations into one error, nil when clean. When more
// violations occurred than were recorded, a summary line notes the overflow.
func (c *Checker) Err() error {
	if c.nViolated == 0 {
		return nil
	}
	errs := make([]error, 0, len(c.violations)+1)
	for _, v := range c.violations {
		errs = append(errs, v)
	}
	if c.nViolated > uint64(len(c.violations)) {
		errs = append(errs, fmt.Errorf("%w: %d further violations not recorded",
			ErrInvariant, c.nViolated-uint64(len(c.violations))))
	}
	return errors.Join(errs...)
}

// IOMMURequest implements iommu.RequestHook: every request reaching the
// IOMMU must eventually complete (checked at settle).
func (c *Checker) IOMMURequest(now sim.VTime, req *xlat.Request) {
	c.arrived[req.ID] = struct{}{}
}

// OnRequest sees one completed translation lifecycle (trace.Sink). Each
// request ID may complete exactly once.
func (c *Checker) OnRequest(start, end uint64, req uint64, source, gpm int) {
	c.nComplete++
	c.latencySum += end - start
	if _, dup := c.completed[req]; dup {
		c.violate("request.double-complete", req, end, "request completed more than once")
		return
	}
	c.completed[req] = struct{}{}
}

// OnQueue implements trace.Sink; queue residency carries no invariant of its
// own beyond what attribution already checks.
func (c *Checker) OnQueue(stage string, start, end uint64, req uint64) {}

// OnWalk implements trace.Sink.
func (c *Checker) OnWalk(start, end uint64, req, vpn uint64) {}

// OnHop accumulates observed link traffic (trace.Sink): at settle the byte
// sum must equal NoC ByteHops, the hop count must equal HopsTotal and the
// deflected count must equal Stats.Deflections — all three accrue per
// actual link traversal on both sides, so the laws are routing-independent.
func (c *Checker) OnHop(start, end uint64, fromX, fromY, toX, toY, size int, deflected bool) {
	c.hopBytes += uint64(size)
	c.hopCount++
	if deflected {
		c.hopDefl++
	}
}

// Sample receives one sampler boundary. Boundaries must arrive in order,
// exactly one window apart — anything else means a dropped or duplicated
// time-series window.
func (c *Checker) Sample(at uint64) {
	if c.window == 0 {
		return
	}
	if at != c.nextSample {
		c.violate("sampler.lost-window", 0, at,
			"sampler boundary %d fired, expected %d", at, c.nextSample)
	}
	if at >= c.nextSample {
		c.nextSample = at + c.window
	}
}

// Probes wires the end-of-run link occupancy walk (noc.Mesh.VisitLinks
// adapted). May be nil.
func (c *Checker) Probes(links func(LinkVisitor)) {
	c.linkProbe = links
}

// Finish runs the end-of-run conservation checks against f and returns every
// violation collected over the run joined into one error (nil when the run
// was clean). Checks that only hold at quiescence are skipped when the run
// was cut (f.Settled false).
func (c *Checker) Finish(f Final) error {
	if f.Settled {
		if f.QueueDepth != 0 || f.WalkersBusy != 0 {
			c.violate("iommu.queue-settle", 0, f.Cycle,
				"IOMMU not quiescent at settle: queue depth %d, walkers busy %d",
				f.QueueDepth, f.WalkersBusy)
		}
		s := f.IOMMU
		terminal := s.TLBHits + s.MSHRMerged + s.Walks + s.Revisits + s.RTRedirects + s.SkippedCompleted
		if s.Requests != terminal {
			c.violate("iommu.conservation", 0, f.Cycle,
				"%d IOMMU submissions vs %d terminal outcomes (tlb %d + merged %d + walks %d + revisits %d + redirects %d + skipped %d)",
				s.Requests, terminal, s.TLBHits, s.MSHRMerged, s.Walks, s.Revisits, s.RTRedirects, s.SkippedCompleted)
		}
		if c.nComplete != f.RemoteReqs {
			c.violate("request.conservation", 0, f.Cycle,
				"%d completions observed for %d issued remote requests", c.nComplete, f.RemoteReqs)
		}
		var dropped []uint64
		for id := range c.arrived {
			if _, ok := c.completed[id]; !ok {
				dropped = append(dropped, id)
			}
		}
		sort.Slice(dropped, func(i, j int) bool { return dropped[i] < dropped[j] })
		for _, id := range dropped {
			c.violate("request.dropped", id, f.Cycle,
				"request reached the IOMMU but never completed")
		}
		if c.hopBytes != f.NoC.ByteHops {
			c.violate("noc.byte-hops", 0, f.Cycle,
				"NoC ByteHops %d but %d bytes observed crossing links", f.NoC.ByteHops, c.hopBytes)
		}
		if c.hopCount != f.NoC.HopsTotal {
			c.violate("noc.deflections", 0, f.Cycle,
				"NoC HopsTotal %d but %d hops observed crossing links", f.NoC.HopsTotal, c.hopCount)
		}
		if c.hopDefl != f.NoC.Deflections {
			c.violate("noc.deflections", 0, f.Cycle,
				"NoC Deflections %d but %d deflected hops observed", f.NoC.Deflections, c.hopDefl)
		}
		if f.NoC.HopsTotal < f.NoC.ManhattanTotal {
			c.violate("noc.hops-lower-bound", 0, f.Cycle,
				"HopsTotal %d below the Manhattan lower bound %d", f.NoC.HopsTotal, f.NoC.ManhattanTotal)
		}
		if f.ExactHops {
			if f.NoC.HopsTotal != f.NoC.ManhattanTotal {
				c.violate("noc.hops-lower-bound", 0, f.Cycle,
					"minimal routing took %d hops for a Manhattan total of %d", f.NoC.HopsTotal, f.NoC.ManhattanTotal)
			}
			if f.NoC.Deflections != 0 {
				c.violate("noc.hops-lower-bound", 0, f.Cycle,
					"minimal routing recorded %d deflections", f.NoC.Deflections)
			}
		}
		if c.latencySum != f.RemoteLatencySum {
			c.violate("attr.accounting", 0, f.Cycle,
				"request spans sum to %d cycles, RemoteLatencySum is %d", c.latencySum, f.RemoteLatencySum)
		}
		if b := f.Breakdown; b != nil {
			var stageSum uint64
			for _, st := range attr.StageOrder {
				stageSum += b.Stage(st).Sum
			}
			if total := b.Stage(attr.StageTotal).Sum; stageSum != total {
				c.violate("attr.accounting", 0, f.Cycle,
					"attribution stages sum to %d, total is %d", stageSum, total)
			}
			if b.Clipped != 0 || b.Unfinished != 0 {
				c.violate("attr.accounting", 0, f.Cycle,
					"attribution ledger not exact at settle: %d clipped, %d unfinished", b.Clipped, b.Unfinished)
			}
		}
		if c.window > 0 && c.nextSample <= f.Cycle {
			c.violate("sampler.lost-window", 0, f.Cycle,
				"sampler boundary %d never fired by final cycle %d", c.nextSample, f.Cycle)
		}
	}
	if c.linkProbe != nil {
		c.linkProbe(func(x, y int, dir string, busy uint64) {
			if busy > f.Cycle {
				c.violate("noc.link-busy", 0, f.Cycle,
					"link x%dy%d.%s busy %d cycles in a %d-cycle run", x, y, dir, busy, f.Cycle)
			}
		})
	}
	return c.Err()
}

// Scheme wraps a remote translator, validating that every completion carries
// the frame number the global page table maps for the requested page. Each
// mismatch is recorded on Checker as an xlat.bad-pfn violation, so
// translation correctness folds into the invariant error.
type Scheme struct {
	Inner   xlat.RemoteTranslator
	Global  *vm.PageTable
	Checker *Checker
	// Eng supplies the detection cycle for violations.
	Eng *sim.Engine
}

// Name returns the wrapped scheme's name.
func (s *Scheme) Name() string { return s.Inner.Name() }

// Translate forwards the request through a proxy that checks the completion
// against the global page table before completing the real request.
func (s *Scheme) Translate(req *xlat.Request) {
	proxy := xlat.NewRequest(req.ID, req.PID, req.VPN, req.Requester, req.Issued, func(res xlat.Result) {
		cycle := uint64(s.Eng.Now())
		want, _, ok := s.Global.Lookup(req.VPN)
		if !ok {
			s.Checker.violate("xlat.bad-pfn", req.ID, cycle, "vpn %#x: completed but unmapped", uint64(req.VPN))
		} else if want.PFN != res.PTE.PFN {
			s.Checker.violate("xlat.bad-pfn", req.ID, cycle, "vpn %#x: pfn %#x from %v, want %#x",
				uint64(req.VPN), uint64(res.PTE.PFN), res.Source, uint64(want.PFN))
		}
		req.Complete(res)
	})
	s.Inner.Translate(proxy)
}

package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"hdpat"
	"hdpat/internal/service"
	"hdpat/internal/vm"
	"hdpat/internal/workload"
)

// Seeds. Every input of a run is drawn from the --seed stream; a change
// that claims a gain must show it on defaultSeed and again on heldOutSeed,
// which is kept out of tuning.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// scheme is the translation scheme every op compares against the baseline.
const scheme = "hdpat"

// stream is a splitmix64 generator keyed by the run seed and a label, so
// each workload draws an independent, reproducible sequence.
type stream struct{ s uint64 }

func newStream(seed int64, label string) *stream {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &stream{s: uint64(seed) ^ h.Sum64()}
}

func (r *stream) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *stream) intn(n int) int { return int(r.next() % uint64(n)) }

// seed returns a non-negative simulation seed.
func (r *stream) seed() int64 { return int64(r.next() >> 1) }

// simOp is one baseline-vs-hdpat comparison simulated in this process.
type simOp struct {
	Label   string
	Bench   workload.Benchmark
	Cfg     hdpat.Config // the system before the scheme's IOMMU settings
	Ops     int          // per-CU ops budget
	Seed    int64
	Routing string // "" is XY, the default
	// Facade ops are timed through hdpat.CompareContext; the rest (custom
	// benchmarks the facade cannot name) through wafer.RunContext.
	Facade bool
}

func routingName(r string) string {
	if r == "" {
		return "xy"
	}
	return r
}

// table2Ops is the per-CU budget of table2-sweep: small enough that one
// pass over all 14 benchmarks takes seconds, large enough that every
// benchmark's walk queue fills under the baseline.
const table2Ops = 8

// table2Pass is the fixed input of table2-sweep: every Table II benchmark
// on the Table I 7x7 wafer under XY routing, each with its own seed.
func table2Pass(seed int64) ([]simOp, error) {
	r := newStream(seed, "table2-sweep")
	cfg := hdpat.DefaultConfig()
	var pass []simOp
	for _, abbr := range hdpat.Benchmarks() {
		b, err := workload.ByAbbr(abbr)
		if err != nil {
			return nil, err
		}
		pass = append(pass, simOp{Label: abbr, Bench: b, Cfg: cfg, Ops: table2Ops, Seed: r.seed(), Facade: true})
	}
	return pass, nil
}

// Geometry of giant-30x30.
const (
	giantDim         = 30
	giantActiveEvery = 10 // every 10th GPM issues traffic; the rest stay lazy
	giantPagesPerGPM = 16
	giantOps         = 4
)

// giantPass is the fixed input of giant-30x30: the concentrated SC30
// pattern at two seed-drawn peer phases, each under XY and under
// deflection routing.
func giantPass(seed int64) []simOp {
	r := newStream(seed, "giant-30x30")
	cfg := hdpat.DefaultConfig()
	cfg.MeshW, cfg.MeshH = giantDim, giantDim
	var pass []simOp
	for i := 0; i < 2; i++ {
		// Peers 14 to 17 rows away: every remote line crosses about half
		// the wafer, whichever phase the seed picks.
		rows := 14 + r.intn(4)
		b := sc30(rows * giantDim / giantActiveEvery)
		for _, routing := range []string{"", "deflect"} {
			pass = append(pass, simOp{
				Label: fmt.Sprintf("SC30+%drows/%s", rows, routingName(routing)),
				Bench: b, Cfg: cfg, Ops: giantOps, Seed: r.seed(), Routing: routing,
			})
		}
	}
	return pass
}

// sc30 is the concentrated giant-wafer pattern. Only every tenth GPM is
// active. Half of an active GPM's ops stride its own chunk; the other half
// read distinct cachelines of the chunk owned by the active GPM `phase`
// active slots further on, so each is an L2 miss fetched across the wafer
// while the few peer pages keep IOMMU walks rare. The trace is pure
// arithmetic: no RNG, no dependence on the run seed.
func sc30(phase int) workload.Benchmark {
	numGPMs := giantDim*giantDim - 1
	active := (numGPMs + giantActiveEvery - 1) / giantActiveEvery
	regions := []workload.RegionSpec{{Name: "main", Pages: numGPMs * giantPagesPerGPM}}
	trace := func(ctx workload.Context) []vm.VAddr {
		if ctx.GPM%giantActiveEvery != 0 {
			return nil
		}
		lines := int(ctx.PageSize / 64)
		r := ctx.Regions["main"]
		lo, hi := r.OwnerSlice(ctx.GPM, ctx.NumGPMs)
		peer := (ctx.GPM/giantActiveEvery + phase) % active * giantActiveEvery
		plo, phi := r.OwnerSlice(peer, ctx.NumGPMs)
		out := make([]vm.VAddr, 0, ctx.OpsBudget)
		for i := 0; i < ctx.OpsBudget; i++ {
			var page, line int
			switch {
			case i%2 == 0 && phi > plo:
				l := ((i/2)*ctx.NumCUs + ctx.CU) % ((phi - plo) * lines)
				page, line = plo+l/lines, l%lines
			case hi > lo:
				page, line = lo+(i*3+ctx.CU)%(hi-lo), i%lines
			}
			out = append(out, ctx.PageSize.Base(r.Start+vm.VPN(page))+vm.VAddr(line*64))
		}
		return out
	}
	return workload.Custom("SC30", "scale-30x30-concentrated", 64, regions, trace)
}

// hdpatd-jobs inputs.
const (
	jobOps      = 8  // per-CU budget of every job
	jobBlock    = 20 // ops per block; block 0 is the fixed input
	repeatEvery = 4  // every 4th submission repeats an earlier spec
)

// jobBenchmarks are the cheap Table II benchmarks jobs draw from, so one
// job takes a fraction of a second.
var jobBenchmarks = []string{"AES", "I2C", "BT", "FIR", "PR"}

// jobOp is one hdpatd submission.
type jobOp struct {
	Index  int
	Spec   service.JobSpec
	Repeat int // index of the op whose spec this repeats, or -1
}

// jobStream yields the op sequence of hdpatd-jobs. Fresh jobs cycle through
// jobBenchmarks in a seed-shuffled order per round of five, so every block
// carries the same benchmark mix; each has its own seed.
type jobStream struct {
	r     *stream
	ops   []jobOp
	fresh []int
	perm  []string
	// warmUp is the job each set-up runs before timing; its seed comes
	// from a stream of its own, so no timed op repeats it.
	warmUp service.JobSpec
}

func newJobStream(seed int64) *jobStream {
	return &jobStream{
		r:      newStream(seed, "hdpatd-jobs"),
		warmUp: compareJob(jobBenchmarks[0], newStream(seed, "hdpatd-jobs/warm-up").seed()),
	}
}

// compareJob is the spec every hdpatd-jobs submission uses: hdpat against
// the baseline with attribution on.
func compareJob(bench string, seed int64) service.JobSpec {
	return service.JobSpec{Kind: service.KindCompare, Scheme: scheme, Benchmark: bench,
		OpsBudget: jobOps, Seed: seed, Attribution: true}
}

// op returns op i, generating the sequence in order up to it.
func (s *jobStream) op(i int) jobOp {
	for len(s.ops) <= i {
		n := len(s.ops)
		if n%repeatEvery == repeatEvery-1 {
			j := s.fresh[s.r.intn(len(s.fresh))]
			s.ops = append(s.ops, jobOp{Index: n, Spec: s.ops[j].Spec, Repeat: j})
			continue
		}
		if len(s.perm) == 0 {
			s.perm = append([]string(nil), jobBenchmarks...)
			for k := len(s.perm) - 1; k > 0; k-- {
				m := s.r.intn(k + 1)
				s.perm[k], s.perm[m] = s.perm[m], s.perm[k]
			}
		}
		bench := s.perm[0]
		s.perm = s.perm[1:]
		s.fresh = append(s.fresh, n)
		s.ops = append(s.ops, jobOp{Index: n, Repeat: -1, Spec: compareJob(bench, s.r.seed())})
	}
	return s.ops[i]
}

// passCount turns --seconds into a fixed number of passes over a
// workload's fixed input, given the workload's nominal pass time (the slow
// end of the reference host's, a 2-CPU Xeon @ 2.10GHz). The count depends
// only on the flag, so a faster program measures the same work in less
// time rather than more work, and percentiles stay comparable across
// commits.
func passCount(seconds, nominalPassSeconds float64) int {
	return max(1, int(math.Ceil(seconds/nominalPassSeconds)))
}

// jobSimOp is the in-process op equivalent to a compare job's runs on the
// daemon's default Table I wafer.
func jobSimOp(spec service.JobSpec) simOp {
	b, _ := workload.ByAbbr(spec.Benchmark) // jobBenchmarks are all Table II names
	return simOp{Label: spec.Benchmark, Bench: b, Cfg: hdpat.DefaultConfig(), Ops: spec.OpsBudget, Seed: spec.Seed, Facade: true}
}

package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hdpat/internal/metrics"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 3) })
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %d, want 20", e.Now())
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(7, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events ran out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []VTime
	e.Schedule(1, func() {
		trace = append(trace, e.Now())
		e.Schedule(3, func() { trace = append(trace, e.Now()) })
		e.Schedule(0, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	want := []VTime{1, 1, 4}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	for _, d := range []VTime{5, 10, 15, 20} {
		e.Schedule(d, func() { ran++ })
	}
	e.RunUntil(10)
	if ran != 2 {
		t.Fatalf("ran %d events by t=10, want 2", ran)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d, want 2", e.Pending())
	}
	e.Run()
	if ran != 4 {
		t.Fatalf("ran %d events total, want 4", ran)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++; e.Stop() })
	e.Schedule(2, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("Stop did not halt engine: ran %d", ran)
	}
	e.Run() // resumes
	if ran != 2 {
		t.Fatalf("resume after Stop ran %d, want 2", ran)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(3, func() { n++ })
	if !e.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if n != 1 || e.Now() != 3 {
		t.Fatalf("after Step: n=%d now=%d", n, e.Now())
	}
	if e.Step() {
		t.Fatal("Step returned true with no events")
	}
}

// Property: for any set of delays, events execute in nondecreasing time order
// and the engine processes all of them.
func TestEngineTimeMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []VTime
		for _, d := range delays {
			d := VTime(d)
			e.Schedule(d, func() { times = append(times, e.Now()) })
		}
		e.Run()
		if len(times) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPoolSingleServerSerialises(t *testing.T) {
	p := NewPool(1)
	s1 := p.Acquire(0, 100)
	s2 := p.Acquire(0, 100)
	s3 := p.Acquire(250, 100)
	if s1 != 0 || s2 != 100 || s3 != 250 {
		t.Fatalf("starts = %d,%d,%d; want 0,100,250", s1, s2, s3)
	}
}

func TestPoolParallelism(t *testing.T) {
	p := NewPool(4)
	for i := 0; i < 4; i++ {
		if s := p.Acquire(0, 50); s != 0 {
			t.Fatalf("server %d start %d, want 0", i, s)
		}
	}
	if s := p.Acquire(0, 50); s != 50 {
		t.Fatalf("5th job start %d, want 50", s)
	}
	if got := p.Busy(25); got != 4 {
		t.Fatalf("Busy(25) = %d, want 4", got)
	}
}

// Property: a k-server pool never has more than k jobs in service at once,
// and starts are never before arrivals.
func TestPoolInvariants(t *testing.T) {
	f := func(seed int64, k8 uint8) bool {
		k := int(k8%8) + 1
		rng := rand.New(rand.NewSource(seed))
		p := NewPool(k)
		type iv struct{ s, e VTime }
		var jobs []iv
		now := VTime(0)
		for i := 0; i < 200; i++ {
			now += VTime(rng.Intn(20))
			svc := VTime(rng.Intn(50) + 1)
			s := p.Acquire(now, svc)
			if s < now {
				return false
			}
			jobs = append(jobs, iv{s, s + svc})
		}
		// Check max concurrency k at every start point.
		for _, j := range jobs {
			conc := 0
			for _, o := range jobs {
				if o.s <= j.s && j.s < o.e {
					conc++
				}
			}
			if conc > k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLine(t *testing.T) {
	var l Line
	s, e := l.Occupy(10, 5)
	if s != 10 || e != 15 {
		t.Fatalf("first occupy %d-%d, want 10-15", s, e)
	}
	s, e = l.Occupy(11, 5)
	if s != 15 || e != 20 {
		t.Fatalf("second occupy %d-%d, want 15-20", s, e)
	}
	if l.BusyCycles != 10 {
		t.Fatalf("BusyCycles = %d, want 10", l.BusyCycles)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(VTime(j%17), func() {})
		}
		e.Run()
	}
}

func TestEngineNextTimeEmpty(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextTime(); ok {
		t.Error("NextTime on an empty heap reported ok")
	}
	e.Schedule(5, func() {})
	if next, ok := e.NextTime(); !ok || next != 5 {
		t.Errorf("NextTime = %d, %v, want 5, true", next, ok)
	}
	e.Run()
	if _, ok := e.NextTime(); ok {
		t.Error("NextTime after drain reported ok")
	}
}

func TestEngineScheduleAtCurrentCycle(t *testing.T) {
	// Zero-delay events scheduled from a handler run later in the same
	// cycle, after already-queued same-cycle events, and At(now) is legal.
	e := NewEngine()
	var order []string
	e.At(10, func() {
		order = append(order, "first")
		e.Schedule(0, func() { order = append(order, "nested") })
		e.At(e.Now(), func() { order = append(order, "at-now") })
	})
	e.At(10, func() { order = append(order, "second") })
	e.Run()
	if e.Now() != 10 {
		t.Errorf("clock = %d, want 10", e.Now())
	}
	want := []string{"first", "second", "nested", "at-now"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEngineStopMidDrainDeterminism stops a run partway, resumes it, and
// checks the event order matches an uninterrupted run — with and without
// metrics attached, which must not perturb dispatch in any way.
func TestEngineStopMidDrainDeterminism(t *testing.T) {
	build := func(e *Engine, log *[]int) {
		for i := 0; i < 20; i++ {
			i := i
			e.At(VTime(i%7), func() {
				*log = append(*log, i)
				if i == 3 {
					e.Schedule(2, func() { *log = append(*log, 100+i) })
				}
			})
		}
	}

	var plain []int
	ep := NewEngine()
	build(ep, &plain)
	ep.Run()

	var sliced []int
	es := NewEngine()
	es.AttachMetrics(metrics.NewRegistry())
	build(es, &sliced)
	for i := 0; es.Pending() > 0 && i < 1000; i++ {
		// Stop after every event: the worst-case drain interruption.
		es.At(es.Now(), func() {})
		es.Step()
		es.Stop()
		es.Run()
	}
	// Filter out the no-op stopper events' absence: sliced should contain
	// exactly the same payload sequence.
	if len(sliced) != len(plain) {
		t.Fatalf("sliced log %v != plain %v", sliced, plain)
	}
	for i := range plain {
		if sliced[i] != plain[i] {
			t.Fatalf("order diverged at %d: %v vs %v", i, sliced, plain)
		}
	}
}

func TestEngineSamplerBoundaries(t *testing.T) {
	e := NewEngine()
	var samples []VTime
	e.AttachSampler(10, func(at VTime) { samples = append(samples, at) })
	for _, d := range []VTime{5, 12, 35, 35, 60} {
		e.At(d, func() {})
	}
	e.Run()
	// Boundaries fire only when an event at or past them runs: 10 before the
	// t=12 event; 20 and 30 before t=35; 40, 50 and 60 before t=60. No
	// boundary beyond the final event, and none at 0.
	want := []VTime{10, 20, 30, 40, 50, 60}
	if len(samples) != len(want) {
		t.Fatalf("samples = %v, want %v", samples, want)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("samples = %v, want %v", samples, want)
		}
	}
}

func TestEngineSamplerObserveOnly(t *testing.T) {
	run := func(e *Engine) ([]int, uint64) {
		var log []int
		for i := 0; i < 30; i++ {
			i := i
			e.Schedule(VTime((i*13)%40), func() { log = append(log, i) })
		}
		e.Run()
		return log, e.Processed
	}
	plain, plainN := run(NewEngine())
	es := NewEngine()
	fired := 0
	es.AttachSampler(7, func(VTime) { fired++ })
	sampled, sampledN := run(es)
	if plainN != sampledN {
		t.Fatalf("Processed %d with sampler vs %d without", sampledN, plainN)
	}
	if len(plain) != len(sampled) {
		t.Fatalf("event counts diverged: %d vs %d", len(sampled), len(plain))
	}
	for i := range plain {
		if plain[i] != sampled[i] {
			t.Fatalf("sampler perturbed order: %v vs %v", sampled, plain)
		}
	}
	if fired == 0 {
		t.Fatal("sampler never fired")
	}
}

func TestEngineSamplerSeesPreEventState(t *testing.T) {
	// The sampler at boundary b observes state as of the last event before b:
	// the engine clock has not advanced to the triggering event yet.
	e := NewEngine()
	var clockAtSample []VTime
	e.AttachSampler(10, func(at VTime) { clockAtSample = append(clockAtSample, e.Now()) })
	e.At(4, func() {})
	e.At(25, func() {})
	e.Run()
	// Boundaries 10 and 20 fire before the t=25 event, with the clock still 4.
	if len(clockAtSample) != 2 || clockAtSample[0] != 4 || clockAtSample[1] != 4 {
		t.Fatalf("engine clock at sample times = %v, want [4 4]", clockAtSample)
	}
}

func TestEngineSamplerStepAndDetach(t *testing.T) {
	e := NewEngine()
	var samples []VTime
	e.AttachSampler(5, func(at VTime) { samples = append(samples, at) })
	e.At(7, func() {})
	e.At(13, func() {})
	if !e.Step() { // fires boundary 5 before the t=7 event
		t.Fatal("Step returned false")
	}
	if len(samples) != 1 || samples[0] != 5 {
		t.Fatalf("samples after first Step = %v, want [5]", samples)
	}
	e.AttachSampler(0, nil) // detach
	e.Run()
	if len(samples) != 1 {
		t.Fatalf("detached sampler still fired: %v", samples)
	}
}

func TestEngineSamplerAttachMidRunAligns(t *testing.T) {
	e := NewEngine()
	var samples []VTime
	e.At(23, func() {
		// Attaching at t=23 with period 10 aligns the next boundary to 30 —
		// never a boundary in the past.
		e.AttachSampler(10, func(at VTime) { samples = append(samples, at) })
	})
	e.At(31, func() {})
	e.Run()
	if len(samples) != 1 || samples[0] != 30 {
		t.Fatalf("samples = %v, want [30]", samples)
	}
}

func TestEngineMetricsObserveOnly(t *testing.T) {
	reg := metrics.NewRegistry()
	run := func(e *Engine) []int {
		var log []int
		for i := 0; i < 10; i++ {
			i := i
			e.Schedule(VTime(10-i), func() { log = append(log, i) })
		}
		e.Run()
		return log
	}
	a := run(NewEngine())
	em := NewEngine()
	em.AttachMetrics(reg)
	b := run(em)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("metrics perturbed order: %v vs %v", a, b)
		}
	}
	s := reg.Snapshot()
	if s.Counter("sim.events_dispatched") != 10 {
		t.Errorf("events_dispatched = %d", s.Counter("sim.events_dispatched"))
	}
	if s.Gauge("sim.heap_peak") < 1 {
		t.Errorf("heap_peak = %d", s.Gauge("sim.heap_peak"))
	}
	if s.Gauge("sim.heap_depth") != 0 {
		t.Errorf("heap_depth after drain = %d", s.Gauge("sim.heap_depth"))
	}
}

// TestEngineSamplerLimitCutFiresTrailingBoundaries is the regression test for
// the sampler boundary gap: when RunUntil's limit cuts the run with events
// still pending, boundaries between the last executed event and the limit
// must fire — they used to be dropped, silently truncating time series.
func TestEngineSamplerLimitCutFiresTrailingBoundaries(t *testing.T) {
	e := NewEngine()
	var samples []VTime
	e.AttachSampler(10, func(at VTime) { samples = append(samples, at) })
	e.At(12, func() {})
	e.At(95, func() {})
	e.RunUntil(47) // runs t=12, leaves t=95 pending
	want := []VTime{10, 20, 30, 40}
	if len(samples) != len(want) {
		t.Fatalf("samples = %v, want %v", samples, want)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("samples = %v, want %v", samples, want)
		}
	}
	// Resuming past the limit must not double-fire: boundaries 50..90 fire
	// before the t=95 event, exactly once each.
	e.RunUntil(Infinity)
	if len(samples) != 9 || samples[4] != 50 || samples[8] != 90 {
		t.Fatalf("samples after resume = %v", samples)
	}
}

// TestEngineSamplerLimitCutMatchesSliced: a single RunUntil(limit) and the
// same run sliced into smaller RunUntil calls fire identical boundary sets —
// the property the wafer's cancellation slicing depends on.
func TestEngineSamplerLimitCutMatchesSliced(t *testing.T) {
	build := func() *Engine {
		e := NewEngine()
		for _, d := range []VTime{3, 18, 44, 90} {
			e.At(d, func() {})
		}
		return e
	}
	var whole, sliced []VTime
	ew := build()
	ew.AttachSampler(10, func(at VTime) { whole = append(whole, at) })
	ew.RunUntil(65)
	es := build()
	es.AttachSampler(10, func(at VTime) { sliced = append(sliced, at) })
	for lim := VTime(5); lim <= 65; lim += 5 {
		es.RunUntil(lim)
	}
	if len(whole) != len(sliced) {
		t.Fatalf("whole %v vs sliced %v", whole, sliced)
	}
	for i := range whole {
		if whole[i] != sliced[i] {
			t.Fatalf("whole %v vs sliced %v", whole, sliced)
		}
	}
}

// TestEngineFlushSamples: a drained run leaves its trailing partial window
// open; FlushSamples closes it without firing anything twice.
func TestEngineFlushSamples(t *testing.T) {
	e := NewEngine()
	var samples []VTime
	e.AttachSampler(10, func(at VTime) { samples = append(samples, at) })
	e.At(25, func() {})
	e.Run()
	if len(samples) != 2 { // 10, 20 before the t=25 event
		t.Fatalf("samples before flush = %v", samples)
	}
	e.FlushSamples(30) // close the [20, 30) window the run ended inside
	if len(samples) != 3 || samples[2] != 30 {
		t.Fatalf("samples after flush = %v", samples)
	}
	e.FlushSamples(30) // idempotent
	e.FlushSamples(Infinity)
	if len(samples) != 3 {
		t.Fatalf("flush re-fired boundaries: %v", samples)
	}
	var detached Engine
	detached.FlushSamples(100) // no sampler: no-op, no panic
}

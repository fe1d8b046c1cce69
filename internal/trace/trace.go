// Package trace is the cycle-domain event tracer: typed spans (IOMMU walks,
// queue residency, NoC hops, request lifecycles) emitted as Chrome
// trace_event JSON loadable in chrome://tracing / Perfetto. Timestamps are
// simulated cycles, not wall time.
//
// A nil *Tracer is a valid, disabled tracer: every method is a no-op, so an
// instrumented component pays exactly one branch when tracing is off.
// Tracing only observes — it never schedules events or mutates simulator
// state — so a traced run is cycle-for-cycle identical to an untraced one.
//
// Batch runs share one output stream: Run(pid) derives a child tracer whose
// events carry that pid (one per batch index), serialised onto the shared
// writer under the parent's lock.
//
// Beyond the output stream, a tracer can fan typed spans out to an
// in-process Sink (Attach): the attribution ledger of internal/attr consumes
// walk, queue, hop and request spans this way at simulation time, without a
// write/parse round trip. A sink-only tracer (Attach over a nil tracer)
// emits no bytes at all.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// KV is one numeric span attribute. Attributes are numeric only so emission
// stays allocation-cheap and byte-deterministic.
type KV struct {
	K string
	V uint64
}

// Sink receives typed spans in-process as they are emitted, before they are
// encoded to the output stream. Implementations must treat the calls as
// observations only: they run inside the simulation loop and must not
// schedule events or mutate simulator state. internal/attr's Collector is
// the canonical implementation.
type Sink interface {
	// OnRequest sees one remote translation lifecycle: issue at the GPM's
	// GMMU boundary to completion, with the serving source (an xlat.Source
	// ordinal) and the requesting GPM.
	OnRequest(start, end uint64, req uint64, source, gpm int)
	// OnQueue sees one queue-stage residency ("iommu.admission",
	// "iommu.pwq").
	OnQueue(stage string, start, end uint64, req uint64)
	// OnWalk sees one page-table walk occupying an IOMMU walker.
	OnWalk(start, end uint64, req, vpn uint64)
	// OnHop sees one NoC link traversal; deflected marks a hop that was
	// misrouted off a productive direction by bufferless deflection routing
	// (always false under XY).
	OnHop(start, end uint64, fromX, fromY, toX, toY, size int, deflected bool)
}

// state is the output stream shared by a tracer and its Run children. A nil
// writer marks a sink-only tracer: spans reach the sink but no bytes are
// emitted.
type state struct {
	mu     sync.Mutex
	w      *bufio.Writer
	events atomic.Uint64
	opened bool
	closed bool
	err    error
}

// Tracer emits events for one run (identified by pid in batch traces).
type Tracer struct {
	st   *state
	pid  int
	sink Sink
}

// New creates a tracer writing Chrome trace_event JSON to w. Call Close when
// the run (or batch) finishes to flush buffered events and terminate the
// JSON array.
func New(w io.Writer) *Tracer {
	return &Tracer{st: &state{w: bufio.NewWriterSize(w, 1<<16)}}
}

// Attach returns a tracer that forwards typed spans to sink in addition to
// t's output stream. A nil t yields a sink-only tracer that writes nothing;
// a nil sink returns t unchanged. The returned tracer shares t's stream and
// pid, so it can replace t at every instrumentation site of a run. Attaching
// to a tracer that already has a sink fans spans out to both, earlier sinks
// first — the attribution ledger and the invariant checker compose this way.
func Attach(t *Tracer, sink Sink) *Tracer {
	if sink == nil {
		return t
	}
	if t == nil {
		return &Tracer{st: &state{}, sink: sink}
	}
	if t.sink != nil {
		sink = teeSink{t.sink, sink}
	}
	return &Tracer{st: t.st, pid: t.pid, sink: sink}
}

// teeSink fans typed spans out to two sinks in order.
type teeSink struct{ a, b Sink }

func (s teeSink) OnRequest(start, end uint64, req uint64, source, gpm int) {
	s.a.OnRequest(start, end, req, source, gpm)
	s.b.OnRequest(start, end, req, source, gpm)
}

func (s teeSink) OnQueue(stage string, start, end uint64, req uint64) {
	s.a.OnQueue(stage, start, end, req)
	s.b.OnQueue(stage, start, end, req)
}

func (s teeSink) OnWalk(start, end uint64, req, vpn uint64) {
	s.a.OnWalk(start, end, req, vpn)
	s.b.OnWalk(start, end, req, vpn)
}

func (s teeSink) OnHop(start, end uint64, fromX, fromY, toX, toY, size int, deflected bool) {
	s.a.OnHop(start, end, fromX, fromY, toX, toY, size, deflected)
	s.b.OnHop(start, end, fromX, fromY, toX, toY, size, deflected)
}

// Run derives a child tracer for one run of a batch: same stream, events
// tagged with pid so viewers separate the runs.
func (t *Tracer) Run(pid int) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{st: t.st, pid: pid, sink: t.sink}
}

// Events returns the number of events emitted so far. It is safe to call
// concurrently with emission (progress reporting, tests).
func (t *Tracer) Events() uint64 {
	if t == nil {
		return 0
	}
	return t.st.events.Load()
}

// Close flushes the stream and terminates the Chrome JSON array. It returns
// the first write error encountered over the tracer's lifetime.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	st := t.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.w == nil {
		return st.err
	}
	st.closed = true
	if !st.opened {
		st.w.WriteString("[")
	}
	st.w.WriteString("\n]\n")
	if err := st.w.Flush(); err != nil && st.err == nil {
		st.err = err
	}
	return st.err
}

// emit writes one event. dur < 0 marks an instant event.
func (t *Tracer) emit(tid, name string, ts uint64, dur int64, kv []KV) {
	if t == nil {
		return
	}
	st := t.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.events.Add(1)
	if st.w == nil { // sink-only tracer: count the event, write nothing
		return
	}
	w := st.w
	if !st.opened {
		w.WriteString("[")
		st.opened = true
	} else {
		w.WriteString(",")
	}
	if dur >= 0 {
		fmt.Fprintf(w, "\n{\"ph\":\"X\",\"pid\":%d,\"tid\":%q,\"cat\":%q,\"name\":%q,\"ts\":%d,\"dur\":%d",
			t.pid, tid, tid, name, ts, dur)
	} else {
		fmt.Fprintf(w, "\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%q,\"cat\":%q,\"name\":%q,\"ts\":%d",
			t.pid, tid, tid, name, ts)
	}
	w.WriteString(",\"args\":{")
	for i, a := range kv {
		if i > 0 {
			w.WriteString(",")
		}
		fmt.Fprintf(w, "%q:%d", a.K, a.V)
	}
	w.WriteString("}}")
}

// Span records a completed [start, end] interval on the named component
// track ("iommu", "noc", ...).
func (t *Tracer) Span(tid, name string, start, end uint64, kv ...KV) {
	if t == nil {
		return
	}
	t.emit(tid, name, start, int64(end-start), kv)
}

// Instant records a point event.
func (t *Tracer) Instant(tid, name string, ts uint64, kv ...KV) {
	if t == nil {
		return
	}
	t.emit(tid, name, ts, -1, kv)
}

// WalkSpan records one IOMMU page-table walk occupying a walker from start
// to end, on behalf of request req for virtual page vpn.
func (t *Tracer) WalkSpan(start, end uint64, req, vpn uint64) {
	if t == nil {
		return
	}
	if t.sink != nil {
		t.sink.OnWalk(start, end, req, vpn)
	}
	t.emit("iommu", "walk", start, int64(end-start), []KV{{"req", req}, {"vpn", vpn}})
}

// QueueSpan records a request's residency in one queue stage
// ("iommu.admission", "iommu.pwq").
func (t *Tracer) QueueSpan(stage string, start, end uint64, req uint64) {
	if t == nil {
		return
	}
	if t.sink != nil {
		t.sink.OnQueue(stage, start, end, req)
	}
	t.emit(stage, "queued", start, int64(end-start), []KV{{"req", req}})
}

// HopSpan records one NoC link traversal (serialisation plus hop latency)
// of a size-byte message. Deflected hops carry an extra defl=1 key; XY
// traces emit exactly the pre-deflection byte stream.
func (t *Tracer) HopSpan(start, end uint64, fromX, fromY, toX, toY, size int, deflected bool) {
	if t == nil {
		return
	}
	if t.sink != nil {
		t.sink.OnHop(start, end, fromX, fromY, toX, toY, size, deflected)
	}
	kv := []KV{
		{"fx", uint64(fromX)}, {"fy", uint64(fromY)},
		{"tx", uint64(toX)}, {"ty", uint64(toY)},
		{"bytes", uint64(size)},
	}
	if deflected {
		kv = append(kv, KV{"defl", 1})
	}
	t.emit("noc", "hop", start, int64(end-start), kv)
}

// RequestSpan records one remote translation lifecycle — request issue at
// the GPM's GMMU boundary through completion — with the serving source (an
// xlat.Source ordinal) and the requesting GPM. Emitted by the GPM at
// completion time, it is the stitching anchor the attribution ledger hangs
// walk/queue spans off.
func (t *Tracer) RequestSpan(start, end uint64, req uint64, source, gpm int) {
	if t == nil {
		return
	}
	if t.sink != nil {
		t.sink.OnRequest(start, end, req, source, gpm)
	}
	t.emit("xlat", "request", start, int64(end-start), []KV{
		{"req", req}, {"src", uint64(source)}, {"gpm", uint64(gpm)},
	})
}

package service

import (
	"bytes"
	"sync"
	"time"

	"hdpat/internal/trace"
)

// timeline is a wall-clock span recorder for one job: the real-time
// sibling of the cycle-domain tracer. It collects job lifecycle spans
// (queued, running, per-run, artifact-write) and instants (accepted,
// terminal state) in memory and renders them through internal/trace's
// Chrome trace_event encoder, so GET /v1/jobs/{id}/timeline loads straight
// into chrome://tracing or Perfetto. Timestamps are microseconds since the
// job's acceptance (the epoch), keeping the numbers viewer-friendly.
//
// Recording is observation only — it never influences run scheduling or
// result bytes — and every method is safe for concurrent use (pool workers
// record run spans while HTTP handlers render live views).
type timeline struct {
	mu     sync.Mutex
	epoch  time.Time
	events []tlEvent
}

// tlEvent is one recorded wall-clock event; dur < 0 marks an instant.
type tlEvent struct {
	tid, name string
	start     time.Time
	dur       time.Duration
	args      []trace.KV
}

func newTimeline(epoch time.Time) *timeline {
	return &timeline{epoch: epoch}
}

// span records a completed [start, end] wall-clock interval on the named
// track.
func (tl *timeline) span(tid, name string, start, end time.Time, args ...trace.KV) {
	if tl == nil || start.IsZero() {
		return
	}
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	tl.mu.Lock()
	tl.events = append(tl.events, tlEvent{tid: tid, name: name, start: start, dur: d, args: args})
	tl.mu.Unlock()
}

// instant records a point event.
func (tl *timeline) instant(tid, name string, at time.Time, args ...trace.KV) {
	if tl == nil {
		return
	}
	tl.mu.Lock()
	tl.events = append(tl.events, tlEvent{tid: tid, name: name, start: at, dur: -1, args: args})
	tl.mu.Unlock()
}

// us converts t to microseconds since the epoch, clamped at zero so events
// recorded marginally before the epoch stamp never underflow.
func (tl *timeline) us(t time.Time) uint64 {
	d := t.Sub(tl.epoch)
	if d < 0 {
		return 0
	}
	return uint64(d.Microseconds())
}

// render encodes the recorded events as Chrome trace_event JSON. It is a
// pure read: rendering a live job's timeline mid-run yields the spans
// completed so far.
func (tl *timeline) render() []byte {
	var buf bytes.Buffer
	t := trace.New(&buf)
	tl.mu.Lock()
	events := append([]tlEvent(nil), tl.events...)
	tl.mu.Unlock()
	for _, ev := range events {
		if ev.dur < 0 {
			t.Instant(ev.tid, ev.name, tl.us(ev.start), ev.args...)
			continue
		}
		t.Span(ev.tid, ev.name, tl.us(ev.start), tl.us(ev.start.Add(ev.dur)), ev.args...)
	}
	t.Close()
	return buf.Bytes()
}

package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the ID
// of the enclosing span (0 for a root); Lane groups spans onto one row of
// the trace viewer (a client, or the serial loop).
type span struct {
	ID, Parent int
	Lane       int
	Name       string
	Start, End time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untimed and timed code share one path.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID (0 on a nil recorder).
func (r *recorder) add(name string, parent, lane int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Lane: lane, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// open starts a span whose end is set later by close; children recorded
// in between can name it as their parent.
func (r *recorder) open(name string, parent, lane int) int {
	now := time.Now()
	return r.add(name, parent, lane, now, now)
}

// close sets the end of an open span to now.
func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = time.Since(r.epoch)
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, parent, lane int, fn func(id int)) {
	id := r.open(name, parent, lane)
	fn(id)
	r.close(id)
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once, and a child
// reaching outside its parent counts only inside it). Indexed like spans.
func selfTime(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, cur := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// ledgerRow aggregates every span of one name.
type ledgerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// ledger groups spans by name, largest self time first.
func ledger(spans []span) []ledgerRow {
	self := selfTime(spans)
	idx := map[string]int{}
	var rows []ledgerRow
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(rows)
			idx[s.Name] = j
			rows = append(rows, ledgerRow{Name: s.Name})
		}
		rows[j].Count++
		rows[j].Total += s.End - s.Start
		rows[j].Self += self[i]
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].Self > rows[b].Self })
	return rows
}

// chromeEvent is one Chrome trace_event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes spans as a Chrome trace_event JSON array (microsecond
// timestamps), loadable in chrome://tracing or Perfetto.
func writeChrome(w io.Writer, spans []span) error {
	evs := make([]chromeEvent, len(spans))
	for i, s := range spans {
		evs[i] = chromeEvent{Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent}}
	}
	return json.NewEncoder(w).Encode(evs)
}

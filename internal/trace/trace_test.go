package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Span("iommu", "walk", 0, 10)
	tr.Instant("noc", "drop", 5)
	tr.WalkSpan(0, 10, 1, 2)
	tr.QueueSpan("iommu.pwq", 0, 5, 1)
	tr.HopSpan(0, 32, 0, 0, 1, 0, 64, false)
	tr.RequestSpan(0, 100, 1, 0, 3)
	if tr.Run(3) != nil {
		t.Error("nil.Run should stay nil")
	}
	if tr.Events() != 0 {
		t.Error("nil.Events should be 0")
	}
	if tr.Close() != nil {
		t.Error("nil.Close should be nil")
	}
}

func TestJSONLFormat(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, JSONL)
	tr.WalkSpan(100, 600, 7, 0x42)
	tr.Instant("noc", "drop", 50, KV{"bytes", 64})
	tr.Run(3).HopSpan(10, 42, 0, 1, 1, 1, 32, false)
	if tr.Events() != 3 {
		t.Errorf("events = %d", tr.Events())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	var walk map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &walk); err != nil {
		t.Fatalf("line 0: %v", err)
	}
	if walk["ev"] != "walk" || walk["ts"] != float64(100) || walk["dur"] != float64(500) ||
		walk["vpn"] != float64(0x42) {
		t.Errorf("walk event = %v", walk)
	}
	if _, hasRun := walk["run"]; hasRun {
		t.Error("run 0 events must omit the run tag")
	}
	var inst map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &inst); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	if _, hasDur := inst["dur"]; hasDur {
		t.Error("instant events must omit dur")
	}
	var hop map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &hop); err != nil {
		t.Fatalf("line 2: %v", err)
	}
	if hop["run"] != float64(3) {
		t.Errorf("child-run event missing run tag: %v", hop)
	}
}

func TestChromeFormatIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, Chrome)
	tr.WalkSpan(0, 10, 1, 2)
	tr.Run(2).QueueSpan("iommu.pwq", 5, 9, 1)
	tr.HopSpan(0, 50, 0, 0, 3, 0, 9, false)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("Chrome output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0]["ph"] != "X" || events[0]["name"] != "walk" || events[0]["dur"] != float64(10) {
		t.Errorf("event 0 = %v", events[0])
	}
	if events[1]["pid"] != float64(2) {
		t.Errorf("child-run event pid = %v", events[1]["pid"])
	}
	args, ok := events[2]["args"].(map[string]any)
	if !ok || args["bytes"] != float64(9) || args["tx"] != float64(3) {
		t.Errorf("hop args = %v", events[2]["args"])
	}
}

func TestChromeEmptyTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, Chrome)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty Chrome trace invalid: %v\n%q", err, buf.String())
	}
	if len(events) != 0 {
		t.Errorf("expected no events, got %d", len(events))
	}
}

func TestEmitAfterCloseDropped(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, JSONL)
	tr.Span("a", "b", 0, 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	tr.Span("a", "late", 2, 3)
	if buf.Len() != n {
		t.Error("events after Close must be dropped")
	}
	if err := tr.Close(); err != nil {
		t.Error("double Close should be idempotent:", err)
	}
}

// recordingSink captures typed sink callbacks for assertions.
type recordingSink struct {
	requests, queues, walks, hops int
	lastStage                     string
	lastSource                    int
}

func (s *recordingSink) OnRequest(start, end uint64, req uint64, source, gpm int) {
	s.requests++
	s.lastSource = source
}
func (s *recordingSink) OnQueue(stage string, start, end uint64, req uint64) {
	s.queues++
	s.lastStage = stage
}
func (s *recordingSink) OnWalk(start, end uint64, req, vpn uint64) { s.walks++ }
func (s *recordingSink) OnHop(start, end uint64, fx, fy, tx, ty, size int, deflected bool) {
	s.hops++
}

// TestSinkReceivesTypedSpans: Attach fans every typed span out to the sink
// while the stream still sees it.
func TestSinkReceivesTypedSpans(t *testing.T) {
	var buf bytes.Buffer
	var sink recordingSink
	tr := Attach(New(&buf, JSONL), &sink)
	tr.WalkSpan(0, 10, 1, 2)
	tr.QueueSpan("iommu.pwq", 0, 5, 1)
	tr.HopSpan(0, 32, 0, 0, 1, 0, 64, false)
	tr.RequestSpan(0, 50, 1, 3, 7)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.walks != 1 || sink.queues != 1 || sink.hops != 1 || sink.requests != 1 {
		t.Errorf("sink = %+v", sink)
	}
	if sink.lastStage != "iommu.pwq" || sink.lastSource != 3 {
		t.Errorf("sink payloads = %+v", sink)
	}
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != 4 {
		t.Errorf("stream got %d lines, want 4", got)
	}
}

// TestSinkOnlyTracer: Attach over a nil tracer observes spans but writes
// nothing, and Close is a no-op.
func TestSinkOnlyTracer(t *testing.T) {
	var sink recordingSink
	tr := Attach(nil, &sink)
	tr.WalkSpan(0, 10, 1, 2)
	tr.RequestSpan(0, 50, 1, 0, 0)
	if sink.walks != 1 || sink.requests != 1 {
		t.Errorf("sink = %+v", sink)
	}
	if tr.Events() != 2 {
		t.Errorf("events = %d, want 2", tr.Events())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if Attach(nil, nil) != nil {
		t.Error("Attach(nil, nil) should stay nil")
	}
}

// TestEventsConcurrent: Events() may race with emission from batch workers —
// the counter must be clean under the race detector.
func TestEventsConcurrent(t *testing.T) {
	tr := New(&bytes.Buffer{}, JSONL)
	const workers, perWorker = 4, 250
	var emitters sync.WaitGroup
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent reader, as tests and progress reporters do
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Events()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		emitters.Add(1)
		go func(w int) {
			defer emitters.Done()
			child := tr.Run(w)
			for i := uint64(0); i < perWorker; i++ {
				child.WalkSpan(i, i+1, i, i)
			}
		}(w)
	}
	emitters.Wait()
	close(stop)
	reader.Wait()
	if got := tr.Events(); got != workers*perWorker {
		t.Errorf("events = %d, want %d", got, workers*perWorker)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestByteDeterminism: the same span sequence produces identical bytes —
// the property the wafer-level determinism test builds on.
func TestByteDeterminism(t *testing.T) {
	emitAll := func(format Format) []byte {
		var buf bytes.Buffer
		tr := New(&buf, format)
		for i := uint64(0); i < 100; i++ {
			tr.WalkSpan(i*10, i*10+7, i, i<<12)
			tr.Run(int(i%4)).HopSpan(i, i+32, 0, 0, 1, 0, 64, false)
		}
		tr.Close()
		return buf.Bytes()
	}
	for _, f := range []Format{JSONL, Chrome} {
		if !bytes.Equal(emitAll(f), emitAll(f)) {
			t.Errorf("format %v output not deterministic", f)
		}
	}
}

// TestAttachComposesSinks: attaching a second sink tees spans to both, in
// attachment order — the wiring the attribution ledger and the invariant
// checker share.
func TestAttachComposesSinks(t *testing.T) {
	var first, second recordingSink
	tr := Attach(Attach(nil, &first), &second)
	tr.WalkSpan(0, 10, 1, 2)
	tr.QueueSpan("iommu.admission", 0, 5, 1)
	tr.HopSpan(0, 32, 0, 0, 1, 0, 64, false)
	tr.RequestSpan(0, 50, 1, 3, 7)
	for name, s := range map[string]*recordingSink{"first": &first, "second": &second} {
		if s.walks != 1 || s.queues != 1 || s.hops != 1 || s.requests != 1 {
			t.Errorf("%s sink = %+v", name, s)
		}
	}
	if tr.Events() != 4 {
		t.Errorf("events = %d, want 4", tr.Events())
	}
	// A Run child keeps the composed sink.
	var third recordingSink
	child := Attach(tr.Run(3), &third)
	child.WalkSpan(10, 20, 2, 3)
	if first.walks != 2 || second.walks != 2 || third.walks != 1 {
		t.Errorf("child fan-out: first=%d second=%d third=%d", first.walks, second.walks, third.walks)
	}
}

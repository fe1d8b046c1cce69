package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdpat/internal/wafer"
)

// fake builds a task returning a result labelled with its index.
func fake(i int, delay time.Duration) Task {
	return func(ctx context.Context) (wafer.Result, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		return wafer.Result{Scheme: fmt.Sprintf("task-%d", i), Cycles: 10}, nil
	}
}

func TestRunOrdersResultsBySubmission(t *testing.T) {
	const n = 16
	tasks := make([]Task, n)
	for i := range tasks {
		// Later submissions finish first.
		tasks[i] = fake(i, time.Duration(n-i)*time.Millisecond)
	}
	p := &Pool{Workers: 8}
	outs := p.Run(context.Background(), tasks)
	if len(outs) != n {
		t.Fatalf("got %d outcomes, want %d", len(outs), n)
	}
	for i, o := range outs {
		if o.Index != i || o.Result.Scheme != fmt.Sprintf("task-%d", i) {
			t.Errorf("outs[%d] = index %d scheme %q", i, o.Index, o.Result.Scheme)
		}
		if o.Err != nil {
			t.Errorf("outs[%d] err = %v", i, o.Err)
		}
		if o.Wall <= 0 {
			t.Errorf("outs[%d] wall = %v", i, o.Wall)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak int64
	tasks := make([]Task, 24)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx context.Context) (wafer.Result, error) {
			cur := atomic.AddInt64(&inFlight, 1)
			for {
				old := atomic.LoadInt64(&peak)
				if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&inFlight, -1)
			return fake(i, 0)(ctx)
		}
	}
	(&Pool{Workers: workers}).Run(context.Background(), tasks)
	if p := atomic.LoadInt64(&peak); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	tasks := []Task{
		fake(0, 0),
		func(ctx context.Context) (wafer.Result, error) { panic("boom") },
		fake(2, 0),
	}
	outs := (&Pool{Workers: 2}).Run(context.Background(), tasks)
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("healthy tasks failed: %v / %v", outs[0].Err, outs[2].Err)
	}
	var pe *PanicError
	if !errors.As(outs[1].Err, &pe) {
		t.Fatalf("panicking task error = %v, want *PanicError", outs[1].Err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = %v (stack %d bytes)", pe.Value, len(pe.Stack))
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestRunCancellationSkipsUnstartedTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 8
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx context.Context) (wafer.Result, error) {
			if i == 0 {
				cancel() // cancel the batch from inside the first task
			}
			return fake(i, 0)(ctx)
		}
	}
	// One worker makes the schedule deterministic: task 0 completes, then
	// every later task is claimed after cancellation.
	outs := (&Pool{Workers: 1}).Run(ctx, tasks)
	if outs[0].Err != nil {
		t.Fatalf("task 0 err = %v", outs[0].Err)
	}
	for i := 1; i < n; i++ {
		if !errors.Is(outs[i].Err, context.Canceled) {
			t.Errorf("outs[%d].Err = %v, want context.Canceled", i, outs[i].Err)
		}
	}
}

func TestProgressSerialisedAndMonotonic(t *testing.T) {
	const n = 12
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = fake(i, time.Duration(i%3)*time.Millisecond)
	}
	var calls []int
	p := &Pool{Workers: 4, Progress: func(done, total int, out Outcome) {
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		calls = append(calls, done) // safe: Progress calls are serialised
	}}
	p.Run(context.Background(), tasks)
	if len(calls) != n {
		t.Fatalf("progress called %d times, want %d", len(calls), n)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done sequence %v", calls)
		}
	}
}

func TestRunEmptyBatch(t *testing.T) {
	outs := (&Pool{}).Run(context.Background(), nil)
	if len(outs) != 0 {
		t.Errorf("got %d outcomes for empty batch", len(outs))
	}
}

func TestSnapshotTracksBatchState(t *testing.T) {
	if s := (&Pool{}).Snapshot(); s != (Snapshot{}) {
		t.Errorf("fresh pool snapshot = %+v, want zero", s)
	}

	const n = 8
	release := make(chan struct{})
	started := make(chan struct{}, n)
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) (wafer.Result, error) {
			started <- struct{}{}
			<-release
			return wafer.Result{Cycles: 1}, nil
		}
	}
	p := &Pool{Workers: 2}
	done := make(chan []Outcome)
	go func() { done <- p.Run(context.Background(), tasks) }()

	// Wait until both workers hold a task, then observe the mid-flight
	// state: 2 inflight, none settled, the rest queued.
	<-started
	<-started
	mid := p.Snapshot()
	if mid.Total != n || mid.Inflight != 2 || mid.Done != 0 || mid.Queued != n-2 {
		t.Errorf("mid-flight snapshot = %+v", mid)
	}
	close(release)
	<-done
	end := p.Snapshot()
	if end.Total != n || end.Done != n || end.Inflight != 0 || end.Queued != 0 {
		t.Errorf("settled snapshot = %+v", end)
	}

	// Counts are cumulative across Run calls on the same pool.
	p.Run(context.Background(), []Task{fake(0, 0)})
	if s := p.Snapshot(); s.Total != n+1 || s.Done != n+1 {
		t.Errorf("cumulative snapshot = %+v", s)
	}
}

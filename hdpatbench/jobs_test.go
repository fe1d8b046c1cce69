package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"hdpat/internal/service"
)

// TestJobClientsAgainstService drives a repeat-bearing stretch of the op
// stream through both clients against an in-process service, then holds
// every op to service.Materialize: the client path, the dedup path and
// the span recorder under concurrency (run with -race).
func TestJobClientsAgainstService(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc, err := service.Open(service.Options{Dir: t.TempDir(), Run: materializeRun, JobWorkers: 1, RunWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer func() {
		srv.Close()
		if err := svc.Close(); err != nil {
			t.Error(err)
		}
	}()

	rec := newRecorder()
	ops := repeatEvery + 1 // op 3 repeats an earlier one
	outs := runJobs(context.Background(), newHTTPClient(), srv.URL, newJobStream(1), ops, rec)
	checkMaterialized(context.Background(), outs, ops, clients)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("op %d: %v", i, o.Err)
		}
		if o.Cycles == 0 || o.Speedup == 0 || len(o.Arts) == 0 {
			t.Errorf("op %d: no cycles, speedup or artifacts read: %+v", i, o)
		}
	}
	if r := outs[repeatEvery-1]; r.Op.Repeat < 0 || r.ID != outs[r.Op.Repeat].ID {
		t.Errorf("op %d: repeat of op %d served job %s, want %s", repeatEvery-1, r.Op.Repeat, r.ID, outs[r.Op.Repeat].ID)
	}
	created := 0
	for _, o := range outs {
		if o.Code == http.StatusCreated {
			created++
		}
	}
	if created != ops-1 {
		t.Errorf("%d jobs created, want %d (one repeat deduplicated)", created, ops-1)
	}
	byName := map[string]int{}
	for _, s := range rec.snapshot() {
		byName[s.Name]++
	}
	for _, name := range []string{"job", "submit", "wait", "artifact_fetch"} {
		if byName[name] != ops {
			t.Errorf("%d %q spans, want %d", byName[name], name, ops)
		}
	}
}

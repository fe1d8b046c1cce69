package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hdpat/internal/service"
)

// TestFailRatioCountsEveryFailure injects a failing run and a wrong digest
// and checks both stay in the attempted count as failures.
func TestFailRatioCountsEveryFailure(t *testing.T) {
	recs := []opRecord{
		{Index: 0, Digest: "good"},
		{Index: 1, Err: errors.New("injected run failure")},
		{Index: 2, Digest: "wrong"},
		{Index: 0, Pass: 1, Digest: "good"},
		{Index: 3, Digest: "fine"},
	}
	want := []string{"good", "whatever", "right", "fine"}
	wantErr := []error{nil, nil, nil, errors.New("invariant violated in traced run")}
	if n := checkDigests(recs, want, wantErr); n != 2 {
		t.Errorf("checkDigests failed %d records, want 2", n)
	}
	rep := &report{Attempted: len(recs), Failed: failures(recs)}
	if rep.Attempted != 5 || rep.Failed != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3", rep.Attempted, rep.Failed)
	}
	if rep.correct() {
		t.Error("a report with failures must not be correct")
	}
}

// TestMaterializeCheckFailsTamperedArtifacts feeds the hdpatd check a job
// whose served digest is wrong, a repeat of it, and a failed job: all
// three count as failures, the intact job does not.
func TestMaterializeCheckFailsTamperedArtifacts(t *testing.T) {
	spec := func(seed int64) service.JobSpec {
		s := compareJob("AES", seed)
		s.OpsBudget = 1
		return s
	}
	arts := func(s service.JobSpec) []service.Artifact {
		blobs, err := service.Materialize(context.Background(), s, materializeRun)
		if err != nil {
			t.Fatal(err)
		}
		var a []service.Artifact
		for _, b := range blobs {
			a = append(a, artifactOf(b))
		}
		return a
	}
	good, bad := arts(spec(1)), arts(spec(2))
	bad[0].Digest = strings.Repeat("0", len(bad[0].Digest)) // no longer the served bytes' hash
	outs := []jobOutcome{
		{Op: jobOp{Index: 0, Spec: spec(1), Repeat: -1}, Arts: good},
		{Op: jobOp{Index: 1, Spec: spec(2), Repeat: -1}, Arts: bad},
		{Op: jobOp{Index: 2, Spec: spec(2), Repeat: 1}, Arts: bad},
		{Op: jobOp{Index: 3, Spec: spec(3), Repeat: -1}, Err: errors.New("injected: job failed")},
	}
	checkMaterialized(context.Background(), outs, 1, 1)
	for i, wantFail := range []bool{false, true, true, true} {
		if (outs[i].Err != nil) != wantFail {
			t.Errorf("op %d: err %v, want failure %v", i, outs[i].Err, wantFail)
		}
	}
}

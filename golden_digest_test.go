// Golden-output conformance: the event-kernel and request-path hot-path
// refactors must leave every observable result byte-identical. This test
// runs every scheme on a small benchmark set with attribution enabled,
// renders Result and Breakdown into a canonical byte form, and compares
// SHA-256 digests against testdata/golden_digests.json — which was
// generated from the pre-refactor closure-based kernel. Any divergence in
// cycle counts, per-GPM stats, IOMMU accounting, NoC traffic or the
// attribution ledger changes a digest and fails the test.
//
// Regenerate (only when an intentional behaviour change is made) with:
//
//	go test -run TestGoldenDigests -update-golden
package hdpat_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"hdpat"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json from current outputs")
var updateGoldenDeflect = flag.Bool("update-golden-deflect", false, "rewrite testdata/golden_digests_deflect.json from current outputs")

const goldenPath = "testdata/golden_digests.json"
const goldenDeflectPath = "testdata/golden_digests_deflect.json"

// goldenBenchmarks keeps the matrix small but covers a regular-strided
// workload, an irregular one, and a pointer-chasing one.
var goldenBenchmarks = []string{"FIR", "SPMV", "PR"}

// digestResult renders the run outcome canonically and hashes it. Every
// field that the acceptance criteria call "Result and Breakdown" is
// included; in-memory-only handles (series pointers, metrics snapshots) are
// not part of the byte contract.
func digestResult(t *testing.T, res hdpat.Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s bench=%s cycles=%d ops=%d\n", res.Scheme, res.Benchmark, res.Cycles, res.TotalOps)
	fmt.Fprintf(&b, "iommu=%+v\n", res.IOMMU)
	// The noc line spells out the four original Stats fields so the XY
	// digests stay byte-identical to the goldens generated before the
	// routing seam grew Stats; the routing-era fields join the byte contract
	// only when routing actually deflected something.
	fmt.Fprintf(&b, "noc={Messages:%d ByteHops:%d HopsTotal:%d MaxHops:%d}\n",
		res.NoC.Messages, res.NoC.ByteHops, res.NoC.HopsTotal, res.NoC.MaxHops)
	if res.NoC.Deflections != 0 {
		fmt.Fprintf(&b, "deflections=%d manhattan=%d\n", res.NoC.Deflections, res.NoC.ManhattanTotal)
	}
	fmt.Fprintf(&b, "aux=%d %+v\n", res.AuxLen, res.AuxStats)
	fmt.Fprintf(&b, "bysource=%v\n", res.RemoteBySource())
	fmt.Fprintf(&b, "migration=%+v\n", res.Migration)
	for i, gs := range res.GPMStats {
		fmt.Fprintf(&b, "gpm%d finish=%d stats=%+v\n", i, res.GPMFinish[i], gs)
	}
	if res.Breakdown != nil {
		bd, err := json.Marshal(res.Breakdown)
		if err != nil {
			t.Fatalf("marshal breakdown: %v", err)
		}
		b.Write(bd)
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// goldenMatrix runs every scheme on every golden benchmark as one parallel
// batch — the Table I configuration with a small per-CU ops budget, a fixed
// seed and attribution on, so the Breakdown is part of the contract — and
// returns the results keyed "scheme/benchmark". Batches are deterministic,
// so the digests equal those of serial Simulate calls.
func goldenMatrix(t *testing.T, opts ...hdpat.Option) map[string]hdpat.Result {
	t.Helper()
	var specs []hdpat.RunSpec
	for _, scheme := range hdpat.Schemes() {
		for _, bench := range goldenBenchmarks {
			specs = append(specs, hdpat.RunSpec{Scheme: scheme, Benchmark: bench})
		}
	}
	opts = append([]hdpat.Option{hdpat.WithOpsBudget(12), hdpat.WithSeed(7), hdpat.WithAttribution()}, opts...)
	runs, err := hdpat.RunBatch(context.Background(), hdpat.DefaultConfig(), specs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]hdpat.Result, len(runs))
	for _, r := range runs {
		key := r.Spec.Scheme + "/" + r.Spec.Benchmark
		if r.Err != nil {
			t.Fatalf("%s: %v", key, r.Err)
		}
		out[key] = r.Result
	}
	return out
}

// checkGolden digests results and compares them against the golden file at
// path, or rewrites the file when update is set. updateFlag names the
// command-line flag that sets update, for the error messages.
func checkGolden(t *testing.T, path string, update bool, updateFlag string, results map[string]hdpat.Result) {
	t.Helper()
	got := make(map[string]string, len(results))
	for k, res := range results {
		got[k] = digestResult(t, res)
	}
	if update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -%s): %v", updateFlag, err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] == "" {
			t.Errorf("%s: run missing from matrix", k)
			continue
		}
		if got[k] != want[k] {
			t.Errorf("%s: digest %s != golden %s (output changed)", k, got[k][:12], want[k][:12])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in golden file (regenerate with -%s)", k, updateFlag)
		}
	}
}

// TestGoldenDigestsDeflect pins the bufferless deflection router's outputs:
// the same scheme matrix as the XY goldens, run under WithRouting("deflect"),
// against its own digest file. Alongside the byte contract it asserts the
// routing law HopsTotal >= ManhattanTotal on every run: paths may be
// non-minimal but never shorter than Manhattan.
//
// Regenerate (only when an intentional behaviour change is made) with:
//
//	go test -run TestGoldenDigestsDeflect -update-golden-deflect
func TestGoldenDigestsDeflect(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is not short")
	}
	results := goldenMatrix(t, hdpat.WithRouting("deflect"))
	for k, res := range results {
		if res.NoC.HopsTotal < res.NoC.ManhattanTotal {
			t.Errorf("%s: HopsTotal %d below Manhattan lower bound %d",
				k, res.NoC.HopsTotal, res.NoC.ManhattanTotal)
		}
	}
	checkGolden(t, goldenDeflectPath, *updateGoldenDeflect, "update-golden-deflect", results)
}

func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is not short")
	}
	checkGolden(t, goldenPath, *updateGolden, "update-golden", goldenMatrix(t))
}

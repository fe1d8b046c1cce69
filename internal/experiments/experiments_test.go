package experiments

import (
	"strings"
	"testing"

	"hdpat/internal/config"
	"hdpat/internal/wafer"
)

// tinySession keeps experiment tests fast: one benchmark, small budget.
func tinySession() *Session {
	return NewSession(Params{Quick: true, OpsBudget: 24, Seed: 7, Benchmarks: []string{"PR"}})
}

func TestTableRendering(t *testing.T) {
	tbl := Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tbl.Addf("row", 1.5)
	tbl.Note("hello %d", 7)
	s := tbl.String()
	for _, want := range []string{"demo", "bb", "1.500", "hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestByIDAndRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 23 {
		t.Fatalf("registry has %d experiments, want 23", len(ids))
	}
	defaults := 0
	for _, id := range ids {
		if RunByDefault(id) {
			defaults++
		}
	}
	if defaults != 20 {
		t.Fatalf("default set has %d experiments, want 20 (extensions opt-in)", defaults)
	}
	if RunByDefault("ext-probe") {
		t.Error("extension study in the default set")
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
		e, err := ByID(id)
		if err != nil || e.ID != id || e.Run == nil || e.Title == "" {
			t.Fatalf("ByID(%s) broken: %+v, %v", id, e, err)
		}
	}
	for _, must := range []string{"tab1", "tab2", "fig14", "fig15", "fig22", "area"} {
		if !seen[must] {
			t.Errorf("missing experiment %s", must)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestStaticTables(t *testing.T) {
	s := tinySession()
	t1, err := Table1(s)
	if err != nil || len(t1.Rows) < 10 {
		t.Fatalf("tab1: %v rows=%d", err, len(t1.Rows))
	}
	t2, err := Table2(s)
	if err != nil || len(t2.Rows) != 14 {
		t.Fatalf("tab2: %v rows=%d", err, len(t2.Rows))
	}
	a, err := Area(s)
	if err != nil || len(a.Rows) != 2 {
		t.Fatalf("area: %v rows=%d", err, len(a.Rows))
	}
}

func TestSessionCachesRuns(t *testing.T) {
	s := tinySession()
	if _, err := Fig16(s); err != nil {
		t.Fatal(err)
	}
	runs := s.Runs
	// Fig17 needs exactly the same baseline+hdpat runs.
	if _, err := Fig17(s); err != nil {
		t.Fatal(err)
	}
	if s.Runs != runs {
		t.Errorf("fig17 re-ran %d simulations despite cache", s.Runs-runs)
	}
	// A config that differs from a cached one in any field, even one the
	// caller left under the same Name, is a distinct run.
	cfg, err := wafer.ConfigFor("hdpat", config.Default())
	if err != nil {
		t.Fatal(err)
	}
	bench := s.benchmarks()[0]
	if _, err := s.run(cfg, "hdpat", bench, wafer.Options{}); err != nil {
		t.Fatal(err)
	}
	if s.Runs != runs {
		t.Fatalf("default hdpat/%s was not cached by fig16", bench)
	}
	cfg.HDPAT.Layers++
	if _, err := s.run(cfg, "hdpat", bench, wafer.Options{}); err != nil {
		t.Fatal(err)
	}
	if s.Runs != runs+1 {
		t.Errorf("config differing only in HDPAT.Layers ran %d simulations, want 1", s.Runs-runs)
	}
}

func TestPerformanceFigureShapes(t *testing.T) {
	s := tinySession()
	f14, err := Fig14(s)
	if err != nil {
		t.Fatal(err)
	}
	// One row per benchmark plus MEAN and GEOMEAN.
	if len(f14.Rows) != 3 {
		t.Fatalf("fig14 rows = %d", len(f14.Rows))
	}
	f16, err := Fig16(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f16.Rows) != 2 {
		t.Fatalf("fig16 rows = %d", len(f16.Rows))
	}
	f18, err := Fig18(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f18.Header) != 4 {
		t.Fatalf("fig18 header = %v", f18.Header)
	}
}

func TestCharacterisationFigures(t *testing.T) {
	s := tinySession()
	for _, fn := range []func(*Session) (Table, error){Fig3, Fig6, Fig8} {
		tbl, err := fn(s)
		if err != nil {
			t.Fatalf("%s: %v", tbl.ID, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", tbl.ID)
		}
	}
}

func TestHelpers(t *testing.T) {
	if mean([]float64{2, 4}) != 3 {
		t.Error("mean")
	}
	if geomean([]float64{1, 4}) != 2 {
		t.Error("geomean")
	}
	if geomean(nil) != 0 || mean(nil) != 0 {
		t.Error("empty inputs")
	}
	if got := sortedKeys(map[string]int{"b": 1, "a": 2}); got[0] != "a" {
		t.Errorf("sortedKeys = %v", got)
	}
}

func TestTableExports(t *testing.T) {
	tbl := Table{ID: "x", Title: "demo", Header: []string{"a", "b"}}
	tbl.Addf("r1", 2.0)
	j, err := tbl.MarshalJSON()
	if err != nil || !strings.Contains(string(j), `"rows":[["r1","2.000"]]`) {
		t.Errorf("json: %s %v", j, err)
	}
	c := tbl.CSV()
	if !strings.Contains(c, "a,b\nr1,2.000") {
		t.Errorf("csv: %q", c)
	}
}

// Every registered experiment must run end to end on a tiny session and
// produce a well-formed table: the id matching its registration, a header,
// at least one row, and rows no wider than the header.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep skipped in -short mode")
	}
	s := NewSession(Params{Quick: true, OpsBudget: 16, Seed: 5, Benchmarks: []string{"PR"}})
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table id %q != experiment id %q", tbl.ID, e.ID)
			}
			if len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
				t.Fatalf("%s produced empty table", e.ID)
			}
			for i, r := range tbl.Rows {
				if len(r) > len(tbl.Header) {
					t.Errorf("%s row %d wider (%d) than header (%d)", e.ID, i, len(r), len(tbl.Header))
				}
			}
		})
	}
}

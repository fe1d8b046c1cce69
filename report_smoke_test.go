// Smoke test for cmd/report: build the binary, exercise the live Compare
// mode, and check the acceptance artifacts — a Markdown latency-breakdown
// table and a per-link NoC heatmap CSV.
package hdpat_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("report build+run skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "report")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/report").CombinedOutput(); err != nil {
		t.Fatalf("build failed: %v\n%s", err, out)
	}

	t.Run("live", func(t *testing.T) {
		dir := t.TempDir()
		cmd := exec.Command(bin, "-scheme", "hdpat", "-bench", "SPMV",
			"-budget", "8", "-mesh", "5", "-seed", "1", "-o", dir)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("run failed: %v\n%s", err, out)
		}
		md, err := os.ReadFile(filepath.Join(dir, "report.md"))
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"| Stage |", "| total |", "Delta: hdpat minus baseline"} {
			if !strings.Contains(string(md), want) {
				t.Errorf("report.md missing %q", want)
			}
		}
		for _, name := range []string{"heatmap-hdpat-SPMV.csv", "heatmap-baseline-SPMV.csv"} {
			csv, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
			if len(lines) < 2 || !strings.HasPrefix(lines[0], "x,y,dir,") {
				t.Errorf("%s is not a populated heatmap:\n%s", name, csv)
			}
		}
	})
}

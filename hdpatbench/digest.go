package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hdpat"
	"hdpat/internal/wafer"
)

// digest renders a run's Result (and Breakdown, when attribution produced
// one) in the canonical byte form of the repository's golden-digest
// contract, testdata/golden_digests.json, and returns its SHA-256. Clear
// res.Breakdown first to compare a run with attribution against one
// without: attribution only observes, so every other line is identical.
func digest(res wafer.Result) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s bench=%s cycles=%d ops=%d\n", res.Scheme, res.Benchmark, res.Cycles, res.TotalOps)
	fmt.Fprintf(&b, "iommu=%+v\n", res.IOMMU)
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
			return "", fmt.Errorf("marshal breakdown: %w", err)
		}
		b.Write(bd)
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

// opDigest is the canonical digest of a comparison: both runs, with their
// attribution ledgers left out.
func opDigest(base, res wafer.Result) (string, error) {
	base.Breakdown, res.Breakdown = nil, nil
	a, err := digest(base)
	if err != nil {
		return "", err
	}
	b, err := digest(res)
	if err != nil {
		return "", err
	}
	return a + "+" + b, nil
}

// anchorKeys are the golden-digest entries reproduced before any timing:
// a regular, an irregular and a pointer-chasing benchmark under three
// different schemes.
var anchorKeys = [][2]string{{"baseline", "SPMV"}, {"hdpat", "PR"}, {"transfw", "FIR"}}

// anchorDigest runs one golden configuration (Table I wafer, ops 12, seed
// 7, attribution on) and returns its digest.
func anchorDigest(scheme, bench string) (string, error) {
	res, err := hdpat.Simulate(hdpat.DefaultConfig(), hdpat.RunSpec{Scheme: scheme, Benchmark: bench},
		hdpat.WithOpsBudget(12), hdpat.WithSeed(7), hdpat.WithAttribution())
	if err != nil {
		return "", err
	}
	return digest(res)
}

// loadGolden reads the committed golden digests under root.
func loadGolden(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "testdata", "golden_digests.json"))
	if err != nil {
		return nil, err
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		return nil, fmt.Errorf("parse golden digests: %w", err)
	}
	return want, nil
}

// goldenAnchor reproduces anchorKeys against the committed digests and
// fails on any drift, so no number is reported for a simulator whose
// behaviour changed.
func goldenAnchor(root string) error {
	want, err := loadGolden(root)
	if err != nil {
		return err
	}
	for _, k := range anchorKeys {
		key := k[0] + "/" + k[1]
		if want[key] == "" {
			return fmt.Errorf("golden anchor: %s missing from testdata/golden_digests.json", key)
		}
		got, err := anchorDigest(k[0], k[1])
		if err != nil {
			return fmt.Errorf("golden anchor %s: %w", key, err)
		}
		if got != want[key] {
			return fmt.Errorf("golden anchor %s: digest %s != committed %s", key, got[:12], want[key][:12])
		}
	}
	return nil
}

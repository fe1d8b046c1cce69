package workload

import (
	"bufio"
	"encoding/json"
	"io"

	"hdpat/internal/vm"
)

// Trace export: a benchmark's per-CU address streams serialise to JSON
// lines ({"gpm":G,"cu":C,"addrs":[...]}), one record per CU, so users can
// inspect the synthetic streams the generators produce.

// TraceRecord is one CU's address stream.
type TraceRecord struct {
	GPM   int      `json:"gpm"`
	CU    int      `json:"cu"`
	Addrs []uint64 `json:"addrs"`
}

// WriteTrace generates benchmark b's traces for an entire wafer and writes
// them as JSON lines. The regions are allocated on a private placement so
// addresses match what a wafer.Run with the same parameters would issue.
func WriteTrace(w io.Writer, b Benchmark, scale, numGPMs, numCUs, opsBudget int, ps vm.PageSize, seed int64) error {
	placement := vm.NewPlacement(numGPMs, ps)
	regions := map[string]vm.Region{}
	for _, rs := range b.Regions(scale, numGPMs, ps) {
		regions[rs.Name] = placement.Alloc(rs.Name, rs.Pages, 0)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for g := 0; g < numGPMs; g++ {
		for cu := 0; cu < numCUs; cu++ {
			tr := b.Trace(Context{
				Regions: regions, PageSize: ps,
				GPM: g, NumGPMs: numGPMs, CU: cu, NumCUs: numCUs,
				OpsBudget: opsBudget, Seed: seed,
			})
			rec := TraceRecord{GPM: g, CU: cu, Addrs: make([]uint64, len(tr))}
			for i, a := range tr {
				rec.Addrs[i] = uint64(a)
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

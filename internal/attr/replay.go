package attr

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// ReplayJSONL rebuilds a Breakdown from a saved JSONL trace (trace.JSONL
// format) instead of a live run, so reports can be regenerated without
// re-simulating. run selects one batch child (the "run" field; 0 is the
// untagged parent); pass -1 to accept every run.
//
// Replay sees exactly the spans a live collector would, with two
// differences: there is no sampler, so time series and peak-window
// utilisation are absent, and link busy cycles are approximated by the sum
// of hop span durations (an upper bound including the fixed hop latency).
// The run length is taken as the latest span end.
func ReplayJSONL(r io.Reader, run int) (*Breakdown, error) {
	c := NewCollector(Config{})
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var maxEnd uint64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e map[string]any
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("attr: trace line %d: %w", lineNo, err)
		}
		if run >= 0 && int(num(e, "run")) != run {
			continue
		}
		ts := num(e, "ts")
		end := ts + num(e, "dur")
		if end > maxEnd {
			maxEnd = end
		}
		switch e["ev"] {
		case "request":
			c.OnRequest(ts, end, num(e, "req"), int(num(e, "src")), int(num(e, "gpm")))
		case "queued":
			stage, _ := e["tid"].(string)
			c.OnQueue(stage, ts, end, num(e, "req"))
		case "walk":
			c.OnWalk(ts, end, num(e, "req"), num(e, "vpn"))
		case "hop":
			c.OnHop(ts, end, int(num(e, "fx")), int(num(e, "fy")),
				int(num(e, "tx")), int(num(e, "ty")), int(num(e, "bytes")),
				num(e, "defl") != 0)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("attr: reading trace: %w", err)
	}
	return c.Finalize("", "", maxEnd), nil
}

// num reads a numeric field, 0 when absent.
func num(e map[string]any, k string) uint64 {
	f, _ := e[k].(float64)
	return uint64(f)
}

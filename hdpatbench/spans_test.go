package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(2), End: ms(5)},  // overlaps a: [1,5] counts once
		{ID: 4, Parent: 1, Name: "c", Start: ms(8), End: ms(12)}, // only [8,10] lies inside op
		{ID: 5, Parent: 3, Name: "d", Start: ms(2), End: ms(4)},  // grandchild: b's time, not op's
	}
	want := []time.Duration{ms(4), ms(2), ms(1), ms(4), ms(2)}
	got := selfTime(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	rows := ledger(spans)
	if len(rows) != 5 || rows[0].Self != ms(4) || rows[len(rows)-1].Self != ms(1) {
		t.Errorf("ledger rows not one per name, largest self time first: %+v", rows)
	}
}

func TestRecorderWritesChromeTrace(t *testing.T) {
	rec := newRecorder()
	rec.timed("op", 0, 0, func(id int) {
		rec.timed("wafer.run", id, 0, func(int) {})
	})
	var nilRec *recorder
	nilRec.timed("ignored", 0, 0, func(int) {})

	var buf bytes.Buffer
	if err := writeChrome(&buf, rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("not trace_event JSON: %v", err)
	}
	if len(evs) != 2 || evs[1].Args["parent"] != evs[0].Args["id"] || evs[0].Ph != "X" {
		t.Errorf("unexpected events: %+v", evs)
	}
}

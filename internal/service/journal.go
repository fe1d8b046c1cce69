package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Journal event types, in lifecycle order. A job journal is an append-only
// JSONL file: exactly one "accepted" line, one "run" line per completed
// run (any order between runs), and at most one terminal line ("done",
// "failed" or "cancelled"). A journal without a terminal line is an
// interrupted job: on restart the daemon re-enqueues it and skips every
// journaled run.
const (
	evAccepted  = "accepted"
	evRun       = "run"
	evDone      = "done"
	evFailed    = "failed"
	evCancelled = "cancelled"
)

// journalEntry is one line of a job journal.
type journalEntry struct {
	T string `json:"t"`
	// Spec rides the accepted entry.
	Spec *JobSpec `json:"spec,omitempty"`
	// Index and Digest ride run entries: the run's position in the job's
	// point order and the store digest of its canonical result JSON.
	Index  int    `json:"i,omitempty"`
	Digest string `json:"digest,omitempty"`
	// Artifacts ride the done entry.
	Artifacts []Artifact `json:"artifacts,omitempty"`
	// Error rides the failed entry.
	Error string `json:"error,omitempty"`
	// Timeline rides terminal entries: the store digest of the job's
	// wall-clock Chrome trace. It is live observability, not part of the
	// artifact byte contract, so it never appears in Artifacts.
	Timeline string `json:"timeline,omitempty"`
	// Time is the wall-clock unix-seconds stamp of the entry; recovery
	// orders re-enqueued jobs by their accepted stamp.
	Time int64 `json:"time"`
}

// journal is the append handle for one job's journal file. Appends are
// serialised and synced, so every acknowledged entry survives a process
// kill.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// jobDir returns the per-job state directory under the service root.
func jobDir(root, id string) string { return filepath.Join(root, "jobs", id) }

// journalPath returns the journal file path for a job directory.
func journalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }

// openJournal opens (creating if needed) the append handle for a job. A
// torn final line left by a kill is trimmed first, so the next entry starts
// on a line of its own instead of fusing onto the fragment.
func openJournal(root, id string) (*journal, error) {
	dir := jobDir(root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	if err := trimTornTail(journalPath(dir)); err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	f, err := os.OpenFile(journalPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	return &journal{f: f}, nil
}

// trimTornTail drops a final line that lacks its newline. A fragment that
// is nonetheless a complete JSON entry only lost its newline, so it is
// terminated instead of dropped.
func trimTornTail(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(data) == 0 || data[len(data)-1] == '\n' {
		return nil
	}
	keep := bytes.LastIndexByte(data, '\n') + 1
	if json.Valid(data[keep:]) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		_, err = f.Write([]byte{'\n'})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return os.Truncate(path, int64(keep))
}

// append writes one entry and syncs it to disk.
func (j *journal) append(e journalEntry) error {
	if e.Time == 0 {
		e.Time = time.Now().Unix()
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	return nil
}

// close releases the file handle.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// journalState is a journal replayed into memory at recovery time.
type journalState struct {
	id       string
	spec     JobSpec
	accepted int64
	// completed maps run index -> result digest for every journaled run.
	completed map[int]string
	// terminal is the terminal event type ("" when the job was interrupted).
	terminal  string
	artifacts []Artifact
	errMsg    string
	// timeline is the stored wall-clock trace digest from the terminal
	// entry, when one was persisted.
	timeline string
	// corrupt lists the 1-based numbers of unparseable lines other than
	// the final one.
	corrupt []int
}

// readJournal replays one job's journal file. An unparseable final line is
// a torn write from a kill and is ignored: every complete line before it
// still counts, which is exactly the run-boundary granularity resume wants.
// Any other unparseable line is skipped too, but reported in corrupt.
func readJournal(path string) (journalState, error) {
	st := journalState{completed: make(map[int]string)}
	f, err := os.Open(path)
	if err != nil {
		return st, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			st.corrupt = append(st.corrupt, line)
			continue
		}
		switch e.T {
		case evAccepted:
			if e.Spec != nil {
				st.spec = *e.Spec
				st.accepted = e.Time
			}
		case evRun:
			if e.Digest != "" {
				st.completed[e.Index] = e.Digest
			}
		case evDone:
			st.terminal = evDone
			st.artifacts = e.Artifacts
			st.timeline = e.Timeline
		case evFailed:
			st.terminal = evFailed
			st.errMsg = e.Error
			st.timeline = e.Timeline
		case evCancelled:
			st.terminal = evCancelled
			st.timeline = e.Timeline
		}
	}
	if n := len(st.corrupt); n > 0 && st.corrupt[n-1] == line {
		st.corrupt = st.corrupt[:n-1] // torn tail write from a kill
	}
	return st, sc.Err()
}

// scanJournals replays every job journal under root, keyed by job ID
// (directory name).
func scanJournals(root string) (map[string]journalState, error) {
	dir := filepath.Join(root, "jobs")
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: recover: %w", err)
	}
	out := make(map[string]journalState)
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		st, err := readJournal(journalPath(filepath.Join(dir, ent.Name())))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, fmt.Errorf("service: recover %s: %w", ent.Name(), err)
		}
		if st.spec.Kind == "" {
			continue // no (valid) accepted entry: nothing to recover
		}
		st.id = ent.Name()
		out[st.id] = st
	}
	return out, nil
}

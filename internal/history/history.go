// Package history is the persistent run-history journal: one
// append-only JSONL file holding one canonical record per completed
// pvcd run (workload, systems, sim FOMs, wall stats, trace ID, schema
// version). The journal survives daemon restarts — pvcd re-opens it on
// boot and serves the accumulated records from GET /v1/history;
// `pvcprof history` reads the same file offline for trend tables and
// regression flags.
//
// Like telemetry/wallprof/reqtrace, history is a wall-clock side
// channel: records are derived from finished results and never feed
// back into the simulation. pvcd's determinism tests prove exports are
// byte-identical with the journal enabled vs disabled.
package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// SchemaVersion stamps every record this build writes. Readers accept
// other versions (records are kept, flagged, never silently dropped)
// so a journal can span daemon upgrades.
const SchemaVersion = 1

// WallStats is the wall-clock summary of one run. Phase fields come
// from the run's wallprof report and are omitted when the phase never
// ran.
type WallStats struct {
	RunMS       float64 `json:"run_ms"`
	BuildMS     float64 `json:"build_ms,omitempty"`
	SimulateMS  float64 `json:"simulate_ms,omitempty"`
	ExportMS    float64 `json:"export_ms,omitempty"`
	CacheWaitMS float64 `json:"cache_wait_ms,omitempty"`
}

// Record is one completed run. Sim keys use the bench-record format
// "workload:metric[/scope]@system" so history FOMs diff directly
// against BENCH_*.json records.
type Record struct {
	Schema    int                `json:"schema_version"`
	ID        string             `json:"id"`
	TraceID   string             `json:"trace_id,omitempty"`
	Start     string             `json:"start"` // RFC3339Nano, UTC
	Workload  string             `json:"workload"`
	Systems   []string           `json:"systems,omitempty"`
	Status    string             `json:"status"` // done | failed
	Cells     int                `json:"cells"`
	CacheHits int64              `json:"cache_hits,omitempty"`
	Panics    int64              `json:"panics,omitempty"`
	Sim       map[string]float64 `json:"sim,omitempty"`
	Wall      WallStats          `json:"wall"`
}

// Journal is an append-only JSONL file plus its in-memory replica.
// Open loads what previous processes wrote; Append is durable before
// it returns. Safe for concurrent use.
//
// The replica holds each record as its encoded JSON line — the bytes
// json.Marshal produces for the Record — not as a decoded Record with
// its Sim map: the line is smaller, and it is what GET /v1/history
// serves anyway.
type Journal struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	lines [][]byte // one json.Marshal(Record) per record, in append order
}

// Open reads an existing journal (strictly — a corrupt line is an
// error naming its line number, not a silent skip) and opens it for
// appending, creating it if absent. Loaded records are re-encoded, so
// the replica holds the same canonical bytes Append would have stored.
func Open(path string) (*Journal, error) {
	recs, err := Read(path)
	if err != nil {
		return nil, err
	}
	var lines [][]byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("history: marshal: %w", err)
		}
		lines = append(lines, line)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	return &Journal{path: path, f: f, lines: lines}, nil
}

// Append stamps the record's schema version if unset, writes it as one
// JSON line, and syncs before returning — a record acknowledged here
// survives a crash.
func (j *Journal) Append(r Record) error {
	if r.Schema == 0 {
		r.Schema = SchemaVersion
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("history: marshal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("history: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("history: append %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("history: sync %s: %w", j.path, err)
	}
	j.lines = append(j.lines, line)
	return nil
}

// Encoded returns every record's JSON encoding in append order (oldest
// first), including those loaded from disk at Open; nil when the
// journal is empty. The outer slice is a copy; the encodings are shared
// and must not be modified.
func (j *Journal) Encoded() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([][]byte(nil), j.lines...)
}

// Records decodes every record in append order (oldest first),
// including those loaded from disk at Open; nil when the journal is
// empty.
func (j *Journal) Records() []Record {
	var recs []Record
	for _, line := range j.Encoded() {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			panic(fmt.Sprintf("history: stored record does not decode: %v", err))
		}
		recs = append(recs, r)
	}
	return recs
}

// Len reports the record count.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.lines)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the underlying file; further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Read loads a journal read-only. A missing file is an empty journal
// (same convention as prof.ReadRecords); a malformed line is an error
// naming the line.
func Read(path string) ([]Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	defer f.Close()

	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r Record
		dec := json.NewDecoder(bytes.NewReader(line))
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("history: %s:%d: %w", path, lineNo, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("history: %s: %w", path, err)
	}
	return recs, nil
}

// Validate strict-parses a journal and proves every line round-trips:
// unmarshal then re-marshal must reproduce the stored bytes exactly.
// That holds for any line Append wrote (Append stores json.Marshal
// output verbatim) and catches hand-edits, field reordering, and
// records carrying fields this build doesn't know. Returns the record
// count.
func Validate(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("history: %w", err)
	}
	defer f.Close()

	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return n, fmt.Errorf("history: %s:%d: %w", path, lineNo, err)
		}
		out, err := json.Marshal(r)
		if err != nil {
			return n, fmt.Errorf("history: %s:%d: re-marshal: %w", path, lineNo, err)
		}
		if !bytes.Equal(out, line) {
			return n, fmt.Errorf("history: %s:%d: record does not round-trip (schema_version %d vs this build's %d?)", path, lineNo, r.Schema, SchemaVersion)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("history: %s: %w", path, err)
	}
	return n, nil
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pvcsim/internal/history"
)

// writeJournal appends records through the real journal so the fixture
// matches what pvcd writes byte for byte.
func writeJournal(t *testing.T, path string, recs ...history.Record) {
	t.Helper()
	j, err := history.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func historyRec(id, workload string, runMS, fom float64) history.Record {
	return history.Record{
		ID: id, TraceID: "t-x-" + id, Start: "2026-08-08T12:00:00Z",
		Workload: workload, Systems: []string{"aurora"}, Status: "done",
		Cells: 1,
		Sim:   map[string]float64{"cloverleaf:grind/cell@Aurora": fom},
		Wall:  history.WallStats{RunMS: runMS, SimulateMS: runMS * 0.8},
	}
}

func TestHistoryTrendTable(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "history.jsonl")
	writeJournal(t, journal,
		historyRec("r0001", "clover-scaling", 100, 100),
		historyRec("r0002", "clover-scaling", 150, 100),
		historyRec("r0003", "p2p", 40, 100))

	var out, errb bytes.Buffer
	if code := run([]string{"history", "-baseline", "", journal}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"RUN", "WORKLOAD", "STATUS", "TRACE",
		"r0001", "r0002", "r0003", "t-x-r0002",
		"FIRST_WALL_MS", "LATEST_WALL_MS",
		"+50.0%", // clover-scaling went 100 → 150 ms
	} {
		if !strings.Contains(text, want) {
			t.Errorf("trend output misses %q:\n%s", want, text)
		}
	}

	// -last trims the trend table but the per-workload aggregate still
	// sees the whole journal.
	out.Reset()
	if code := run([]string{"history", "-baseline", "", "-last", "1", journal}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	if strings.Contains(out.String(), "r0001\t") || !strings.Contains(out.String(), "r0003") {
		t.Fatalf("-last 1 should show only the newest record:\n%s", out.String())
	}
}

func TestHistoryFlagsForeignSchema(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "history.jsonl")
	writeJournal(t, journal, historyRec("r0001", "p2p", 10, 1))
	// A record from a future build: valid JSON, different schema. It is
	// hand-appended because Append always stamps this build's version.
	future := `{"schema_version":99,"id":"r0002","start":"2026-08-08T13:00:00Z","workload":"p2p","status":"done","cells":1,"wall":{"run_ms":9}}`
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(future + "\n")
	f.Close()

	var out, errb bytes.Buffer
	if code := run([]string{"history", "-baseline", "", journal}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "note run r0002: schema_version 99") {
		t.Fatalf("foreign schema record not flagged:\n%s", out.String())
	}
}

func TestHistoryBaselineGate(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "history.jsonl")
	writeJournal(t, journal, historyRec("r0001", "clover-scaling", 100, 90))
	baseline := writeFile(t, dir, "BENCH_baseline.json", benchJSON(100))

	// 10% FOM drop against the baseline: FAIL line, exit 1.
	var out, errb bytes.Buffer
	if code := run([]string{"history", "-baseline", baseline, journal}, &out, &errb); code != 1 {
		t.Fatalf("regression must exit 1, got %d:\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "FAIL cloverleaf:grind/cell@Aurora: baseline 100 -> run r0001 90") {
		t.Fatalf("missing FAIL line:\n%s", out.String())
	}

	// The same drift inside -rel-tol passes.
	out.Reset()
	errb.Reset()
	if code := run([]string{"history", "-baseline", baseline, "-rel-tol", "0.2", journal}, &out, &errb); code != 0 {
		t.Fatalf("within tolerance must exit 0, got %d:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "ok: run r0001 matches") {
		t.Fatalf("missing ok line:\n%s", out.String())
	}
}

func TestHistoryMissingBaselineIsTrendOnly(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "history.jsonl")
	writeJournal(t, journal, historyRec("r0001", "p2p", 10, 1))

	var out, errb bytes.Buffer
	code := run([]string{"history", "-baseline", filepath.Join(dir, "absent.json"), journal}, &out, &errb)
	if code != 0 {
		t.Fatalf("missing baseline must not fail the trend view, got %d:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no regression check") {
		t.Fatalf("missing-baseline note absent:\n%s", out.String())
	}
}

func TestHistoryBadInputsExit2(t *testing.T) {
	dir := t.TempDir()
	corrupt := writeFile(t, dir, "bad.jsonl", "not json\n")
	empty := filepath.Join(dir, "absent.jsonl")

	var out, errb bytes.Buffer
	if code := run([]string{"history", corrupt}, &out, &errb); code != 2 {
		t.Fatalf("corrupt journal: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), ":1:") {
		t.Fatalf("error does not name the corrupt line: %s", errb.String())
	}
	errb.Reset()
	if code := run([]string{"history", empty}, &out, &errb); code != 2 {
		t.Fatalf("empty journal: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"history"}, &out, &errb); code != 2 {
		t.Fatalf("no argument: exit %d, want 2", code)
	}
}

// TestHistoryMetricTolMatchesDiff: history and diff share one drift
// rule, so a -metric-tol that admits a drift in diff admits the same
// drift in history, and a tighter one fails both.
func TestHistoryMetricTolMatchesDiff(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "history.jsonl")
	writeJournal(t, journal, historyRec("r0001", "clover-scaling", 100, 90))
	baseline := writeFile(t, dir, "BENCH_baseline.json", benchJSON(100))
	current := writeFile(t, dir, "current.json", benchJSON(90))
	const key = "cloverleaf:grind/cell@Aurora"

	for tol, want := range map[string]int{"0.2": 0, "0.05": 1} {
		var out, errb bytes.Buffer
		diff := run([]string{"diff", "-metric-tol", key + "=" + tol, baseline, current}, &out, &errb)
		hist := run([]string{"history", "-baseline", baseline, "-metric-tol", key + "=" + tol, journal}, &out, &errb)
		if diff != want || hist != want {
			t.Errorf("-metric-tol %s: diff exit %d, history exit %d, want both %d\n%s%s",
				tol, diff, hist, want, out.String(), errb.String())
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"pvcsim/internal/history"
)

// getBody GETs a path and returns the raw 200 body.
func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// encodeMap is how the handlers used to build their bodies: the whole
// response as one map through json.NewEncoder(w).Encode.
func encodeMap(t *testing.T, m map[string]any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mapHistoryBody is the map-encoded /v1/history body for the journal
// file, read independently of the daemon's in-memory replica.
func mapHistoryBody(t *testing.T, path, limit string) []byte {
	t.Helper()
	recs, err := history.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if limit != "" {
		n, err := strconv.Atoi(limit)
		if err != nil {
			t.Fatal(err)
		}
		if n < len(recs) {
			recs = recs[len(recs)-n:]
		}
	}
	return encodeMap(t, map[string]any{
		"schema_version": history.SchemaVersion,
		"path":           path,
		"count":          len(recs),
		"records":        recs,
	})
}

// mapListBody is the map-encoded /v1/runs body for the server's runs.
func mapListBody(t *testing.T, s *server) []byte {
	t.Helper()
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]statusJSON, 0, len(ids))
	for _, id := range ids {
		st := s.statusOf(s.runs[id])
		st.Cells = nil
		out = append(out, st)
	}
	return encodeMap(t, map[string]any{"runs": out})
}

// checkHistoryBodies compares /v1/history with and without a limit
// against the map encoding.
func checkHistoryBodies(t *testing.T, ts *httptest.Server, path, stage string) {
	t.Helper()
	for _, limit := range []string{"", "0", "1"} {
		url := "/v1/history"
		if limit != "" {
			url += "?limit=" + limit
		}
		got, want := getBody(t, ts, url), mapHistoryBody(t, path, limit)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: GET %s\n got %s\nwant %s", stage, url, got, want)
		}
	}
}

// TestHistoryAndListBodiesMatchMapEncoding pins the streamed /v1/history
// and /v1/runs bodies byte for byte to the map encoding they replaced:
// an empty journal (records null), a filled one under no limit,
// limit=0 and limit=1, and a journal reopened from disk.
func TestHistoryAndListBodiesMatchMapEncoding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	j, err := history.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, 2)
	s.journal = j

	checkHistoryBodies(t, ts, path, "empty journal")
	if got, want := getBody(t, ts, "/v1/runs"), mapListBody(t, s); !bytes.Equal(got, want) {
		t.Errorf("no runs: GET /v1/runs\n got %s\nwant %s", got, want)
	}
	if !bytes.Contains(getBody(t, ts, "/v1/history"), []byte(`"records":null`)) {
		t.Error("empty journal does not serve records: null")
	}

	for _, spec := range []string{
		`{"workload":"p2p","systems":["aurora"]}`,
		`{"workload":"triad","systems":["aurora","dawn"]}`,
	} {
		waitRun(t, s, submitRun(t, ts, spec))
	}
	checkHistoryBodies(t, ts, path, "two records")
	if got, want := getBody(t, ts, "/v1/runs"), mapListBody(t, s); !bytes.Equal(got, want) {
		t.Errorf("two runs: GET /v1/runs\n got %s\nwant %s", got, want)
	}
	j.Close()

	j2, err := history.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j2.Close() })
	s2 := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), 1)
	s2.journal = j2
	ts2 := httptest.NewServer(s2.handler())
	t.Cleanup(ts2.Close)
	checkHistoryBodies(t, ts2, path, "reopened journal")
}

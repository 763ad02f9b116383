package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pvcsim/internal/sweep"
	"pvcsim/internal/topology"
)

// serviceSpec is one POST /v1/runs body the mix submits.
type serviceSpec struct {
	Workload string   `json:"workload"`
	Systems  []string `json:"systems"`
	Wait     bool     `json:"wait,omitempty"`
}

func (s serviceSpec) key() string { return s.Workload + " @ " + strings.Join(s.Systems, ",") }

// runSpecs are submitted asynchronously and followed over SSE; async
// submissions always simulate. Half drive the event engine (cluster
// families, clover-scaling, p2p), half are analytic.
var runSpecs = []serviceSpec{
	{Workload: "allreduce/nodes=2,prec=fp64,algo=rd", Systems: []string{"aurora"}},
	{Workload: "allreduce/nodes=4,prec=fp32,algo=ring", Systems: []string{"aurora"}},
	{Workload: "clover-strong/system=dawn,nodes=2,placement=spread", Systems: []string{"dawn"}},
	{Workload: "clover-scaling", Systems: []string{"aurora"}},
	{Workload: "p2p", Systems: []string{"dawn"}},
	{Workload: "fp64-peak", Systems: []string{"aurora"}},
	{Workload: "triad", Systems: []string{"dawn"}},
	{Workload: "cloverleaf", Systems: []string{"aurora"}},
	{Workload: "openmc", Systems: []string{"h100"}},
	{Workload: "sgemm", Systems: []string{"dawn"}},
}

// repeatSpecs are submitted in wait mode. Set-up runs each once, so
// every timed repeat must be answered from the completed-run cache.
var repeatSpecs = []serviceSpec{
	{Workload: "dgemm", Systems: []string{"aurora"}, Wait: true},
	{Workload: "minibude", Systems: []string{"dawn"}, Wait: true},
	{Workload: "hacc", Systems: []string{"aurora"}, Wait: true},
	{Workload: "pcie-h2d", Systems: []string{"dawn"}, Wait: true},
}

// mixBlock is the request mix of every 20 ops: 50% run, 20% repeat,
// 30% reads. The seed shuffles each block and the specs within it, so
// every seed sends the same mix in a different order.
var mixBlock = []string{
	"run", "run", "run", "run", "run", "run", "run", "run", "run", "run",
	"repeat", "repeat", "repeat", "repeat",
	"list", "run_metrics", "run_metrics", "scrape", "scrape", "history",
}

// bootReps is how many times set-up boots pvcd; setup_s is the median.
const bootReps = 15

// request is one drawn op.
type request struct {
	kind string
	spec serviceSpec
}

// serviceMix drives a pvcd daemon with two closed-loop clients.
type serviceMix struct {
	o       options
	want    map[string]string // spec key → sha256 of the run's metrics export
	base    string            // http://127.0.0.1:port
	client  *http.Client
	cmd     *exec.Cmd
	exited  chan struct{}
	journal string

	rngs   []*rand.Rand // per client; only that client touches it
	queues [][]request  // per client

	mu         sync.Mutex
	done       []completed       // finished runs, for metrics reads
	repeatIDs  map[string]string // repeat spec key → the run the cache answers with
	runsSeen   atomic.Int64      // runs finished and seen by a client
	tracedRuns []float64
	startOnce  sync.Once
	start      *serviceSnapshot // taken as the traced loop begins
}

type completed struct{ id, key string }

// serviceSnapshot holds the counters the traced loop differences.
type serviceSnapshot struct {
	started, cacheHits, submits float64
	rssKB                       float64
	journalBytes                int64
}

func (s *serviceMix) clients() int { return min(2, runtime.NumCPU()) }

func (s *serviceMix) setup(ctx context.Context, o options) ([]time.Duration, []sample, error) {
	s.o = o
	if o.pvcd == "" {
		return nil, nil, fmt.Errorf("service-mix needs --pvcd")
	}
	if err := readJSON(filepath.Join(o.refs, "service-mix.json"), &s.want); err != nil {
		return nil, nil, err
	}
	s.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8},
	}
	s.repeatIDs = map[string]string{}
	for c := 0; c < s.clients(); c++ {
		s.rngs = append(s.rngs, rand.New(rand.NewSource(o.seed*1000+int64(c))))
		s.queues = append(s.queues, nil)
	}
	// Set-up is exec until /readyz answers 200, repeated; the last
	// daemon stays up for the loop.
	var durs []time.Duration
	for i := 0; i < bootReps; i++ {
		if i > 0 {
			if err := s.stop(); err != nil {
				return nil, nil, err
			}
		}
		d, err := s.boot(filepath.Join(o.tmp, fmt.Sprintf("history-%d.jsonl", i)))
		if err != nil {
			return nil, nil, err
		}
		durs = append(durs, d)
	}
	// Warm-up: every repeat spec once (filling the completed-run cache)
	// and every run spec once, all checked.
	var warm []sample
	for _, spec := range repeatSpecs {
		st, d, err := s.postWait(ctx, spec)
		smp := sample{dur: d, err: err}
		if err == nil {
			if st.Cached {
				smp.err = fmt.Errorf("%s: first submission answered from cache", spec.key())
			} else {
				s.repeatIDs[spec.key()] = st.ID
				smp.err = s.checkMetrics(ctx, st.ID, spec.key())
			}
		}
		warm = append(warm, smp)
	}
	for _, spec := range runSpecs {
		warm = append(warm, s.runOp(ctx, spec, nil))
	}
	return durs, warm, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// boot starts pvcd with a history journal and returns the time from
// exec until /readyz answered 200.
func (s *serviceMix) boot(journal string) (time.Duration, error) {
	addr, err := freePort()
	if err != nil {
		return 0, err
	}
	logf, err := os.Create(filepath.Join(s.o.tmp, "pvcd.log"))
	if err != nil {
		return 0, err
	}
	defer logf.Close()
	cmd := exec.Command(s.o.pvcd, "-addr", addr, "-history", journal, "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	s.cmd, s.journal, s.base = cmd, journal, "http://"+addr
	s.exited = make(chan struct{})
	go func() { cmd.Wait(); close(s.exited) }()
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			return 0, fmt.Errorf("pvcd exited during start-up (see %s)", logf.Name())
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 30*time.Second {
			return 0, fmt.Errorf("pvcd not ready after 30s")
		}
	}
}

// stop drains pvcd with SIGTERM and waits for it to exit.
func (s *serviceMix) stop() error {
	if s.cmd == nil {
		return nil
	}
	cmd := s.cmd
	s.cmd = nil
	s.client.CloseIdleConnections()
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return nil
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("pvcd did not drain within 15s")
	}
}

func (s *serviceMix) close() error { return s.stop() }

// next draws client c's next request.
func (s *serviceMix) next(c int) request {
	if len(s.queues[c]) == 0 {
		rng := s.rngs[c]
		kinds := append([]string(nil), mixBlock...)
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		runs := append([]serviceSpec(nil), runSpecs...)
		rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		reps := append([]serviceSpec(nil), repeatSpecs...)
		rng.Shuffle(len(reps), func(i, j int) { reps[i], reps[j] = reps[j], reps[i] })
		for _, k := range kinds {
			r := request{kind: k}
			switch k {
			case "run":
				r.spec, runs = runs[0], runs[1:]
			case "repeat":
				r.spec, reps = reps[0], reps[1:]
			}
			s.queues[c] = append(s.queues[c], r)
		}
	}
	r := s.queues[c][0]
	s.queues[c] = s.queues[c][1:]
	return r
}

func (s *serviceMix) op(ctx context.Context, c, _ int, tr *tracer) sample {
	if tr != nil {
		s.startOnce.Do(func() {
			snap := s.snapshot(ctx)
			s.start = &snap
		})
	}
	r := s.next(c)
	switch r.kind {
	case "run":
		return s.runOp(ctx, r.spec, tr)
	case "repeat":
		return s.repeatOp(ctx, r.spec, tr)
	case "run_metrics":
		s.mu.Lock()
		if len(s.done) == 0 {
			s.mu.Unlock()
			return sample{err: fmt.Errorf("no finished run to read")}
		}
		d := s.done[s.rngs[c].Intn(len(s.done))]
		s.mu.Unlock()
		smp, body := s.get(ctx, "run_metrics", "/v1/runs/"+d.id+"/metrics", tr)
		if smp.err == nil {
			smp.err = checkDigest(body, s.want[d.key], d.key)
		}
		smp.layer = map[string]float64{"pvcd.run_metrics_ms": ms(smp.dur)}
		return smp
	case "list":
		seen := s.runsSeen.Load()
		smp, body := s.get(ctx, "list", "/v1/runs", tr)
		if smp.err == nil {
			var out struct {
				Runs []json.RawMessage `json:"runs"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				smp.err = err
			} else if int64(len(out.Runs)) < seen {
				smp.err = fmt.Errorf("/v1/runs lists %d runs, %d had finished", len(out.Runs), seen)
			}
		}
		smp.layer = map[string]float64{"pvcd.list_ms": ms(smp.dur), "pvcd.list_bytes": float64(len(body))}
		return smp
	case "history":
		seen := s.runsSeen.Load()
		smp, body := s.get(ctx, "history", "/v1/history", tr)
		if smp.err == nil {
			var out struct {
				Count int64 `json:"count"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				smp.err = err
			} else if out.Count < seen {
				smp.err = fmt.Errorf("/v1/history holds %d records, %d runs had finished", out.Count, seen)
			}
		}
		smp.layer = map[string]float64{"history.read_ms": ms(smp.dur)}
		return smp
	default: // scrape
		smp, body := s.get(ctx, "scrape", "/metrics", tr)
		if smp.err == nil && !bytes.Contains(body, []byte("\npvcd_runs_started_total ")) {
			smp.err = fmt.Errorf("/metrics lacks pvcd_runs_started_total")
		}
		smp.layer = map[string]float64{"telemetry.scrape_ms": ms(smp.dur), "telemetry.scrape_bytes": float64(len(body))}
		return smp
	}
}

// get times one GET and returns its body; a non-2xx answer fails it.
func (s *serviceMix) get(ctx context.Context, kind, path string, tr *tracer) (sample, []byte) {
	id := tr.begin("pvcd."+kind, 0)
	t0 := time.Now()
	body, err := s.fetch(ctx, path)
	smp := sample{dur: time.Since(t0), err: err}
	tr.end(id)
	return smp, body
}

func (s *serviceMix) fetch(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return body, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (s *serviceMix) post(ctx context.Context, spec serviceSpec) (*http.Response, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.client.Do(req)
}

// statusJSON is the part of pvcd's run status the checks read.
type statusJSON struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Cells  []struct {
		Status string `json:"status"`
	} `json:"cells"`
}

// postWait submits a wait-mode spec and decodes the final status.
func (s *serviceMix) postWait(ctx context.Context, spec serviceSpec) (statusJSON, time.Duration, error) {
	var st statusJSON
	t0 := time.Now()
	resp, err := s.post(ctx, spec)
	if err != nil {
		return st, time.Since(t0), err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return st, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, d, fmt.Errorf("POST %s: %s", spec.key(), resp.Status)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, d, err
	}
	if st.Status != "done" {
		return st, d, fmt.Errorf("%s: run %s %s", spec.key(), st.ID, st.Status)
	}
	for _, c := range st.Cells {
		if c.Status != "ok" {
			return st, d, fmt.Errorf("%s: run %s has a %s cell", spec.key(), st.ID, c.Status)
		}
	}
	return st, d, nil
}

// repeatOp is a wait-mode submission the completed-run cache answers.
func (s *serviceMix) repeatOp(ctx context.Context, spec serviceSpec, tr *tracer) sample {
	id := tr.begin("pvcd.repeat", 0)
	st, d, err := s.postWait(ctx, spec)
	tr.end(id)
	smp := sample{dur: d, err: err}
	if err == nil {
		s.mu.Lock()
		want := s.repeatIDs[spec.key()]
		s.mu.Unlock()
		switch {
		case !st.Cached:
			smp.err = fmt.Errorf("%s: repeat not answered from the completed-run cache", spec.key())
		case st.ID != want:
			smp.err = fmt.Errorf("%s: cache answered with run %s, want %s", spec.key(), st.ID, want)
		}
	}
	smp.layer = map[string]float64{"pvcd.repeat_ms_p50": ms(d)}
	return smp
}

// runOp submits a spec asynchronously and follows the run's SSE stream
// to its final "run" event. The check fetches the run's metrics export.
func (s *serviceMix) runOp(ctx context.Context, spec serviceSpec, tr *tracer) sample {
	opID := tr.begin("pvcd.run", 0)
	subID := tr.begin("pvcd.submit", opID)
	t0 := time.Now()
	var smp sample
	id, err := s.submit(ctx, spec)
	submit := time.Since(t0)
	tr.end(subID)
	var status string
	if err == nil {
		waitID := tr.begin("pvcd.events", opID)
		status, err = s.follow(ctx, id)
		tr.end(waitID)
	}
	smp.dur = time.Since(t0)
	tr.end(opID)
	smp.layer = map[string]float64{"pvcd.submit_ms_p50": ms(submit), "pvcd.run_ms_p50": ms(smp.dur)}
	if err == nil && status != "done" {
		err = fmt.Errorf("%s: run %s %s", spec.key(), id, status)
	}
	if err == nil {
		err = s.checkMetrics(ctx, id, spec.key())
	}
	smp.err = err
	if err == nil {
		s.runsSeen.Add(1)
		s.mu.Lock()
		s.done = append(s.done, completed{id: id, key: spec.key()})
		if tr != nil {
			s.tracedRuns = append(s.tracedRuns, ms(smp.dur))
		}
		s.mu.Unlock()
	}
	return smp
}

func (s *serviceMix) submit(ctx context.Context, spec serviceSpec) (string, error) {
	resp, err := s.post(ctx, spec)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST %s: %s", spec.key(), resp.Status)
	}
	return out.ID, nil
}

// follow reads the run's SSE stream until its "run" event and returns
// the final status. The stream ends after that event; reading it to EOF
// lets the connection be reused.
func (s *serviceMix) follow(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	isRun := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: run":
			isRun = true
		case isRun && strings.HasPrefix(line, "data: "):
			var ev struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return "", err
			}
			io.Copy(io.Discard, resp.Body)
			return ev.Status, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events %s ended without a run event", id)
}

func (s *serviceMix) checkMetrics(ctx context.Context, id, key string) error {
	body, err := s.fetch(ctx, "/v1/runs/"+id+"/metrics")
	if err != nil {
		return err
	}
	return checkDigest(body, s.want[key], key)
}

func checkDigest(body []byte, want, key string) error {
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("%s: metrics digest %.12s, want %.12s", key, got, want)
	}
	return nil
}

// snapshot reads the counters the traced loop differences: pvcd's run
// and cache counters from /metrics, its resident set and the journal
// size.
func (s *serviceMix) snapshot(ctx context.Context) serviceSnapshot {
	var snap serviceSnapshot
	if page, err := s.fetch(ctx, "/metrics"); err == nil {
		snap.started = promValue(page, "pvcd_runs_started_total")
		snap.cacheHits = promValue(page, "pvcd_run_cache_hits_total")
		snap.submits = promValue(page, `pvcd_http_requests_total{route="runs_submit"}`)
	}
	if s.cmd != nil {
		snap.rssKB = procStatusKB(s.cmd.Process.Pid, "VmRSS")
	}
	if fi, err := os.Stat(s.journal); err == nil {
		snap.journalBytes = fi.Size()
	}
	return snap
}

// promValue returns the value of one series on a Prometheus text page.
func promValue(page []byte, series string) float64 {
	for _, line := range strings.Split(string(page), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

func (s *serviceMix) summarize(loop loopResult, vals map[string]float64) {
	if len(loop.samples) > 0 {
		vals["alloc_mb_per_op"] = float64(loop.allocBytes) / float64(len(loop.samples)) / 1e6
	}
	if s.cmd != nil {
		vals["rss_mb"] = peakRSSMB(s.cmd.Process.Pid)
	}
}

func (s *serviceMix) layers(ctx context.Context, tr *tracer) (map[string]float64, error) {
	v := map[string]float64{}
	s.mu.Lock()
	runs := s.tracedRuns
	s.mu.Unlock()
	start := s.start
	v["pvcd.run_ms_p90"] = quantile(runs, 0.9)
	if start != nil {
		end := s.snapshot(ctx)
		if n := end.submits - start.submits; n > 0 {
			v["pvcd.cache_hit_ratio"] = (end.cacheHits - start.cacheHits) / n
			v["pvcd.sims_per_submit"] = (end.started - start.started) / n
		}
		if n := end.started - start.started; n > 0 {
			v["pvcd.rss_kb_per_run"] = (end.rssKB - start.rssKB) / n
			v["history.journal_bytes_per_run"] = float64(end.journalBytes-start.journalBytes) / n
		}
	}
	if err := s.reqtraceLayers(ctx, v); err != nil {
		return nil, err
	}
	// The in-process layers, replayed per run spec the way pvcd runs
	// each submission (its own machine, collector and exports), and
	// averaged over the specs: the mix sends each equally often.
	all := map[string][]float64{}
	for pass := 0; pass < probePasses; pass++ {
		sum := map[string]float64{}
		for _, spec := range runSpecs {
			cells, err := specCells(spec)
			if err != nil {
				return nil, err
			}
			pv, err := probe(ctx, cells, tr)
			if err != nil {
				return nil, err
			}
			for k, x := range pv {
				if k == "workload.run_max_ms" {
					sum[k] = max(sum[k], x)
				} else {
					sum[k] += x / float64(len(runSpecs))
				}
			}
		}
		if sum["obs.spans"] > 0 {
			sum["sim.host_us_per_span"] = sum["workload.run_ms"] * 1e3 / sum["obs.spans"]
		}
		for k, x := range sum {
			all[k] = append(all[k], x)
		}
	}
	for k, xs := range all {
		v[k] = median(xs)
	}
	return v, nil
}

// specCells resolves a run spec to the cells pvcd runs for it.
func specCells(spec serviceSpec) ([]probeCell, error) {
	reg := sweep.DefaultRegistry()
	w, ok := reg.Get(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("workload %q not registered", spec.Workload)
	}
	var cells []probeCell
	for _, name := range spec.Systems {
		sys, err := topology.ParseSystem(name)
		if err != nil {
			return nil, err
		}
		cells = append(cells, newProbeCell(sys, w))
	}
	return cells, nil
}

// reqtraceLayers reads pvcd's request traces and averages, over the
// retained run traces, the cells' queue wait and simulate time.
func (s *serviceMix) reqtraceLayers(ctx context.Context, v map[string]float64) error {
	body, err := s.fetch(ctx, "/v1/reqtrace")
	if err != nil {
		return err
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &file); err != nil {
		return fmt.Errorf("/v1/reqtrace: %w", err)
	}
	runTIDs := map[int]bool{}
	for _, e := range file.TraceEvents {
		if name, _ := e.Args["name"].(string); e.Ph == "M" && e.Name == "thread_name" && strings.Contains(name, " run r") {
			runTIDs[e.TID] = true
		}
	}
	var wait, sim float64
	for _, e := range file.TraceEvents {
		if e.Ph != "X" || !runTIDs[e.TID] {
			continue
		}
		switch e.Name {
		case "queue-wait":
			wait += e.Dur / 1e3
		case "simulate":
			sim += e.Dur / 1e3
		}
	}
	if n := float64(len(runTIDs)); n > 0 {
		v["pvcd.queue_wait_ms"] = wait / n
		v["pvcd.simulate_ms"] = sim / n
	}
	return nil
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"pvcsim/internal/core"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/topology"
	"pvcsim/internal/workload"
)

// setupReps is how many times an in-process run repeats its set-up,
// which takes well under a millisecond; setup_s is the median.
const setupReps = 101

// probePasses is how many layer-probe passes a traced run makes.
const probePasses = 3

// paperArtifacts is the `pvcbench -artifacts` path: one op builds a
// fresh serial study and writes the whole artifact set.
type paperArtifacts struct {
	tmp         string
	want        map[string]string // artifact file → sha256 hex
	experiments []byte            // the repository's EXPERIMENTS.md
	reg         *workload.Registry
	computed    []probeCell // cells the first traced op computed
}

func (p *paperArtifacts) clients() int { return 1 }

func (p *paperArtifacts) setup(ctx context.Context, o options) ([]time.Duration, []sample, error) {
	p.tmp = o.tmp
	if err := readJSON(filepath.Join(o.refs, "paper-artifacts.json"), &p.want); err != nil {
		return nil, nil, err
	}
	var err error
	if p.experiments, err = os.ReadFile(filepath.Join(o.root, "EXPERIMENTS.md")); err != nil {
		return nil, nil, err
	}
	// Set-up is what a study builds before simulating: the registry of
	// every family and its cell expansion.
	durs, err := timeSetup(func() error {
		p.reg = sweep.DefaultRegistry()
		_ = runner.Cells(p.reg)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return durs, warmup(ctx, p), nil
}

// timeSetup times setupReps runs of fn, each after a garbage
// collection so that no run pays for the previous one's garbage.
func timeSetup(fn func() error) ([]time.Duration, error) {
	var durs []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t0))
	}
	return durs, nil
}

func (p *paperArtifacts) op(ctx context.Context, _, i int, tr *tracer) sample {
	dir := filepath.Join(p.tmp, fmt.Sprintf("artifacts-%d", i))
	defer os.RemoveAll(dir)
	var h *cellHooks
	var prefetch, render time.Duration
	_, b0 := heapAllocs()
	t0 := time.Now()
	study := core.NewParallelStudy(1)
	var err error
	if tr == nil {
		err = study.WriteAllArtifacts(dir)
	} else {
		opID := tr.begin("op", 0)
		h = newCellHooks(tr)
		study.Runner().AddHooks(h)
		h.parent = tr.begin("core.prefetch", opID)
		err = study.Prefetch(ctx)
		prefetch = tr.end(h.parent)
		if err == nil {
			h.parent = tr.begin("core.render", opID)
			err = study.WriteAllArtifacts(dir)
			render = tr.end(h.parent)
		}
		tr.end(opID)
	}
	s := sample{dur: time.Since(t0)}
	_, b1 := heapAllocs()
	s.allocBytes = b1 - b0
	if err != nil {
		s.err = err
		return s
	}
	written, err := checkArtifacts(dir, p.want, p.experiments)
	s.err = err
	if h != nil {
		s.layer = h.summary()
		s.layer["core.prefetch_ms"] = ms(prefetch)
		s.layer["core.render_ms"] = ms(render)
		s.layer["core.bytes_written"] = float64(written)
		if p.computed == nil {
			p.computed = h.computedCells(p.reg)
		}
	}
	return s
}

// checkArtifacts compares every written file with its reference digest,
// and EXPERIMENTS.md byte for byte with the repository copy. It returns
// the bytes written.
func checkArtifacts(dir string, want map[string]string, experiments []byte) (int64, error) {
	got, written, err := digestDir(dir)
	if err != nil {
		return 0, err
	}
	for name, sum := range want {
		if got[name] != sum {
			return written, fmt.Errorf("artifact %s: digest %.12s, want %.12s", name, got[name], sum)
		}
	}
	if len(got) != len(want) {
		return written, fmt.Errorf("artifact set has %d files, want %d", len(got), len(want))
	}
	data, err := os.ReadFile(filepath.Join(dir, "EXPERIMENTS.md"))
	if err != nil {
		return written, err
	}
	if string(data) != string(experiments) {
		return written, fmt.Errorf("EXPERIMENTS.md differs from the repository copy")
	}
	return written, nil
}

// digestDir returns the sha256 of every regular file in dir and their
// total size.
func digestDir(dir string) (map[string]string, int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]string{}
	var total int64
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, 0, err
		}
		sum := sha256.Sum256(data)
		out[e.Name()] = hex.EncodeToString(sum[:])
		total += int64(len(data))
	}
	return out, total, nil
}

func (p *paperArtifacts) layers(ctx context.Context, tr *tracer) (map[string]float64, error) {
	return probeMedians(ctx, p.computed, tr, probePasses)
}

func (p *paperArtifacts) summarize(loop loopResult, vals map[string]float64) {
	vals["alloc_mb_per_op"] = meanAllocMB(loop.samples)
	vals["rss_mb"] = peakRSSMB(os.Getpid())
}

func (p *paperArtifacts) close() error { return nil }

// clusterSweeps runs every clover-strong and allreduce cell — the
// engine-driving cluster families — on a fresh runner per op.
type clusterSweeps struct {
	rng   *rand.Rand
	want  map[string]map[string]float64 // cell → "metric|scope" → value
	cells []runner.Cell
}

// clusterFamilies are the sweep families the workload expands.
var clusterFamilies = []string{"clover-strong", "allreduce"}

func expandClusterCells() ([]runner.Cell, error) {
	var cells []runner.Cell
	for _, name := range clusterFamilies {
		f, ok := sweep.FamilyByName(name)
		if !ok {
			return nil, fmt.Errorf("sweep family %q missing", name)
		}
		ws, err := f.Expand(nil)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			for _, sys := range w.Systems() {
				cells = append(cells, runner.Cell{System: sys, Workload: w})
			}
		}
	}
	return cells, nil
}

func (c *clusterSweeps) clients() int { return 1 }

func (c *clusterSweeps) setup(ctx context.Context, o options) ([]time.Duration, []sample, error) {
	c.rng = rand.New(rand.NewSource(o.seed))
	if err := readJSON(filepath.Join(o.refs, "cluster-sweeps.json"), &c.want); err != nil {
		return nil, nil, err
	}
	durs, err := timeSetup(func() (err error) {
		c.cells, err = expandClusterCells()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return durs, warmup(ctx, c), nil
}

// warmupOps in-process ops run, checked and counted after set-up and
// before timing starts.
const warmupOps = 2

func warmup(ctx context.Context, b bench) []sample {
	var out []sample
	for i := 0; i < warmupOps; i++ {
		out = append(out, b.op(ctx, 0, -1-i, nil))
	}
	return out
}

func (c *clusterSweeps) op(ctx context.Context, _, _ int, tr *tracer) sample {
	cells := append([]runner.Cell(nil), c.cells...)
	c.rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	r := runner.New(runtime.NumCPU())
	var h *cellHooks
	var opID int
	if tr != nil {
		h = newCellHooks(tr)
		r.AddHooks(h)
		opID = tr.begin("op", 0)
		h.parent = opID
	}
	_, b0 := heapAllocs()
	t0 := time.Now()
	results := r.Run(ctx, cells)
	s := sample{dur: time.Since(t0)}
	_, b1 := heapAllocs()
	tr.end(opID)
	s.allocBytes = b1 - b0
	s.err = checkCluster(c.want, results)
	if h != nil {
		s.layer = h.summary()
	}
	return s
}

// clusterKey names a cell in the reference file.
func clusterKey(name string, sys topology.System) string { return name + " @ " + sys.String() }

// clusterValues flattens a cell result to "metric|scope" → value.
func clusterValues(res workload.Result) map[string]float64 {
	out := map[string]float64{}
	for _, v := range res.Values {
		out[v.Metric+"|"+v.Scope] = v.Value
	}
	return out
}

// checkCluster requires every cell to succeed with exactly its
// reference values.
func checkCluster(want map[string]map[string]float64, results []runner.CellResult) error {
	if len(results) != len(want) {
		return fmt.Errorf("%d cells ran, want %d", len(results), len(want))
	}
	for _, res := range results {
		key := clusterKey(res.Name, res.System)
		if res.Err != nil {
			return fmt.Errorf("%s: %w", key, res.Err)
		}
		got, ref := clusterValues(res.Result), want[key]
		if len(got) != len(ref) {
			return fmt.Errorf("%s: %d values, want %d", key, len(got), len(ref))
		}
		for k, v := range ref {
			if g, ok := got[k]; !ok || g != v {
				return fmt.Errorf("%s %s = %v, want %v", key, k, g, v)
			}
		}
	}
	return nil
}

func (c *clusterSweeps) layers(ctx context.Context, tr *tracer) (map[string]float64, error) {
	cells := make([]probeCell, len(c.cells))
	for i, cell := range c.cells {
		cells[i] = newProbeCell(cell.System, cell.Workload)
	}
	return probeMedians(ctx, cells, tr, probePasses)
}

func (c *clusterSweeps) summarize(loop loopResult, vals map[string]float64) {
	vals["alloc_mb_per_op"] = meanAllocMB(loop.samples)
	vals["rss_mb"] = peakRSSMB(os.Getpid())
}

func (c *clusterSweeps) close() error { return nil }

func meanAllocMB(samples []sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var total float64
	for _, s := range samples {
		total += float64(s.allocBytes)
	}
	return total / float64(len(samples)) / 1e6
}

// cellHooks is a runner.Hooks that records a span per queue wait and
// per cell, under the span named by parent, and tallies the runner
// layer's counts for one op.
type cellHooks struct {
	tr     *tracer
	parent int

	mu       sync.Mutex
	queued   map[string][]time.Time
	started  map[string][]time.Time
	computed []string // "system\x00workload" of computed cells
	hits     int
	waits    []float64
	cellMax  time.Duration
}

func newCellHooks(tr *tracer) *cellHooks {
	return &cellHooks{tr: tr, queued: map[string][]time.Time{}, started: map[string][]time.Time{}}
}

func hookKey(system, name string) string { return system + "\x00" + name }

// pop removes and returns the oldest instant recorded under k.
func pop(m map[string][]time.Time, k string) (time.Time, bool) {
	ts := m[k]
	if len(ts) == 0 {
		return time.Time{}, false
	}
	m[k] = ts[1:]
	return ts[0], true
}

func (h *cellHooks) CellQueued(system, name string) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	k := hookKey(system, name)
	h.queued[k] = append(h.queued[k], now)
}

func (h *cellHooks) CellStart(system, name string) {
	now := time.Now()
	h.mu.Lock()
	k := hookKey(system, name)
	q, ok := pop(h.queued, k)
	h.started[k] = append(h.started[k], now)
	if ok {
		h.waits = append(h.waits, ms(now.Sub(q)))
	}
	h.mu.Unlock()
	if ok {
		h.tr.add("runner.queue", h.parent, q, now)
	}
}

func (h *cellHooks) CellFinish(system, name string, wall time.Duration, cached bool, err error) {
	now := time.Now()
	h.mu.Lock()
	k := hookKey(system, name)
	st, ok := pop(h.started, k)
	if cached {
		h.hits++
	} else {
		h.computed = append(h.computed, k)
		h.cellMax = max(h.cellMax, wall)
	}
	h.mu.Unlock()
	if ok {
		h.tr.add("runner.cell", h.parent, st, now)
	}
}

func (h *cellHooks) CellCacheHit(system, name string)         {}
func (h *cellHooks) CellPanic(system, name string, err error) {}

// summary returns the op's runner-layer values.
func (h *cellHooks) summary() map[string]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := map[string]float64{}
	n := float64(len(h.computed))
	v["runner.cells_computed"] = n
	if n+float64(h.hits) > 0 {
		v["runner.memo_hit_ratio"] = float64(h.hits) / (n + float64(h.hits))
	}
	if len(h.waits) > 0 {
		var sum float64
		for _, w := range h.waits {
			sum += w
		}
		v["runner.queue_wait_ms"] = sum / float64(len(h.waits))
	}
	v["runner.cell_max_ms"] = ms(h.cellMax)
	return v
}

// computedCells resolves the computed cells against the registry, in a
// stable order, for the layer probe.
func (h *cellHooks) computedCells(reg *workload.Registry) []probeCell {
	h.mu.Lock()
	keys := append([]string(nil), h.computed...)
	h.mu.Unlock()
	sort.Strings(keys)
	var out []probeCell
	for _, k := range keys {
		system, name, _ := strings.Cut(k, "\x00")
		sys, err := topology.ParseSystem(system)
		w, ok := reg.Get(name)
		if err != nil || !ok {
			continue
		}
		out = append(out, newProbeCell(sys, w))
	}
	return out
}

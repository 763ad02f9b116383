// Command e2ebench is pvcsim's end-to-end benchmark. It drives the
// simulator from outside, through the public entry points of sweep,
// runner, core, gpusim, topology, workload, obs and prof, and drives
// the pvcd service over HTTP. Every op is checked against committed
// references outside its timed interval.
//
// Usage (from the repository root; run.sh builds this program and pvcd
// first):
//
//	bash e2ebench/run.sh --workload paper-artifacts|cluster-sweeps|service-mix \
//	    --seed N --seconds S --trace 0|1
//	bash e2ebench/run.sh --gen-refs
//	bash e2ebench/run.sh --compare old.txt new.txt
//
// With --trace 0 the last stdout line is a JSON object holding the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a separately traced run. The line before it is the full record,
// stamped with the host fingerprint and the seed. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

func main() {
	// A signal cancels the loop, so the benchmark still stops pvcd and
	// waits for it before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout root
	refs     string // reference directory
	tmp      string // scratch directory for op outputs
	pvcd     string // built pvcd binary
}

// bench is one workload.
type bench interface {
	// setup prepares the inputs, returns the durations of its repeated
	// set-ups, then warms up and returns the checked warm-up ops.
	setup(ctx context.Context, o options) ([]time.Duration, []sample, error)
	// clients is the number of concurrent closed-loop clients.
	clients() int
	// op runs client c's i-th op, recording spans into tr when it is
	// not nil, and checks the output outside the timed interval.
	op(ctx context.Context, c, i int, tr *tracer) sample
	// summarize adds the workload's own end-to-end values.
	summarize(loop loopResult, vals map[string]float64)
	// layers measures the per-layer values after the traced loop.
	layers(ctx context.Context, tr *tracer) (map[string]float64, error)
	close() error
}

func newBench(name string) (bench, error) {
	switch name {
	case "paper-artifacts":
		return &paperArtifacts{}, nil
	case "cluster-sweeps":
		return &clusterSweeps{}, nil
	case "service-mix":
		return &serviceMix{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have paper-artifacts, cluster-sweeps, service-mix)", name)
}

// sample is one checked op.
type sample struct {
	client     int           // the closed-loop client that ran it
	traced     bool          // ran with spans recorded
	dur        time.Duration // the op's timed interval
	allocBytes uint64        // heap bytes allocated in the interval (in-process)
	err        error         // failure or output mismatch
	layer      map[string]float64
}

// loopResult is one closed-loop measurement.
type loopResult struct {
	samples    []sample
	allocBytes uint64 // heap bytes the process allocated in the loop
}

// failed counts the samples whose op failed or mismatched.
func (l loopResult) failed() int {
	n := 0
	for _, s := range l.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// opsPerSecond sums, over clients, the traced (or untraced) ops a
// client ran per second of their op intervals: the checks between ops
// are excluded.
func (l loopResult) opsPerSecond(traced bool) float64 {
	count := map[int]int{}
	busy := map[int]time.Duration{}
	for _, s := range l.samples {
		if s.traced == traced {
			count[s.client]++
			busy[s.client] += s.dur
		}
	}
	var r float64
	for c, b := range busy {
		if b > 0 {
			r += float64(count[c]) / b.Seconds()
		}
	}
	return r
}

// traceBlock is the length of the alternating op blocks of a traced
// loop: one service-mix request mix, so traced and untraced blocks send
// the same requests.
var traceBlock = len(mixBlock)

// runLoop runs every client's ops back to back until d has elapsed.
// With a tracer, each client alternates untraced and traced blocks of
// ops, so both share the run's conditions (pvcd's state grows as the
// run goes on) and their rates give the tracing overhead.
func runLoop(ctx context.Context, b bench, d time.Duration, tr *tracer) loopResult {
	var res loopResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	_, b0 := heapAllocs()
	deadline := time.Now().Add(d)
	for c := 0; c < b.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				var opTr *tracer
				if k/traceBlock%2 == 1 {
					opTr = tr
				}
				s := b.op(ctx, c, i, opTr)
				s.client, s.traced = c, opTr != nil
				mu.Lock()
				res.samples = append(res.samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	_, b1 := heapAllocs()
	res.allocBytes = b1 - b0
	return res
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "paper-artifacts, cluster-sweeps or service-mix")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (paper-artifacts records it but has no random input)")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured loop")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository checkout root")
	fs.StringVar(&o.refs, "refs", "e2ebench/refs", "reference directory")
	fs.StringVar(&o.tmp, "tmp", "", "scratch directory (default: a new one under the system temp dir)")
	fs.StringVar(&o.pvcd, "pvcd", "", "pvcd binary (service-mix)")
	genRefs := fs.Bool("gen-refs", false, "regenerate the reference files and exit")
	compare := fs.Bool("compare", false, "compare two saved outputs: e2ebench --compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2ebench: --compare takes two files")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	tmp, err := os.MkdirTemp(o.tmp, "e2ebench-")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp
	if *genRefs {
		if err := generateRefs(ctx, o); err != nil {
			fmt.Fprintln(stderr, "e2ebench: gen-refs:", err)
			return 1
		}
		return 0
	}
	rec, err := measure(ctx, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", line)
	line, err = json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full stamped result: what --compare reads.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Seconds     float64            `json:"seconds"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Samples     int                `json:"samples"`
	SelfMS      map[string]float64 `json:"self_ms_total,omitempty"` // traced: self time per span name
	Result      result             `json:"result"`
}

// measure sets the workload up, warms it up, runs the loop (traced:
// every other op traced, then the layer probe) and returns the stamped
// record.
func measure(ctx context.Context, o options, log io.Writer) (*record, error) {
	b, err := newBench(o.workload)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := b.close(); err != nil {
			fmt.Fprintln(log, "e2ebench:", err)
		}
	}()
	setups, warm, err := b.setup(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
	}

	checked := loopResult{samples: warm}
	d := time.Duration(o.seconds * float64(time.Second))
	rec := &record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Fingerprint: hostFingerprint()}
	vals := map[string]float64{}
	if !o.trace {
		loop := runLoop(ctx, b, d, nil)
		checked.samples = append(checked.samples, loop.samples...)
		durs := make([]float64, len(loop.samples))
		for i, s := range loop.samples {
			durs[i] = ms(s.dur)
		}
		vals["ops_per_s"] = loop.opsPerSecond(false)
		vals["op_p50_ms"] = quantile(durs, 0.5)
		vals["op_p90_ms"] = quantile(durs, 0.9)
		sd := make([]float64, len(setups))
		for i, s := range setups {
			sd[i] = s.Seconds()
		}
		vals["setup_s"] = median(sd)
		b.summarize(loop, vals)
		rec.Samples = len(loop.samples)
	} else {
		tr := newTracer()
		loop := runLoop(ctx, b, d, tr)
		checked.samples = append(checked.samples, loop.samples...)
		layerVals := map[string][]float64{}
		for _, s := range loop.samples {
			if !s.traced {
				continue
			}
			rec.Samples++
			for k, v := range s.layer {
				layerVals[k] = append(layerVals[k], v)
			}
		}
		for k, xs := range layerVals {
			vals[k] = median(xs)
		}
		probed, err := b.layers(ctx, tr)
		if err != nil {
			return nil, err
		}
		for k, v := range probed {
			vals[k] = v
		}
		if plain := loop.opsPerSecond(false); plain > 0 {
			vals["trace_overhead_pct"] = (plain - loop.opsPerSecond(true)) / plain * 100
		}
		rec.SelfMS = map[string]float64{}
		for name, d := range tr.selfTimes() {
			rec.SelfMS[name] = ms(d)
		}
		path := filepath.Join(filepath.Dir(o.tmp), fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := tr.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "e2ebench: spans written to %s\n", path)
	}

	failed := checked.failed()
	attempted := len(checked.samples)
	var firstErr error
	for _, s := range checked.samples {
		if s.err != nil {
			firstErr = s.err
			break
		}
	}
	worst, err := fidelityCheck(o)
	vals["fidelity_max_err_pct"] = worst
	attempted++
	if err != nil {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		fmt.Fprintf(log, "e2ebench: %d of %d checked ops failed; first: %v\n", failed, attempted, firstErr)
	}
	vals["ok_ratio"] = 1 - float64(failed)/float64(attempted)
	catalog := endToEnd
	if o.trace {
		catalog = perLayer
	}
	rec.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: fill(catalog, vals)}
	logSummary(log, rec)
	return rec, nil
}

// logSummary prints the metrics readably on stderr.
func logSummary(w io.Writer, rec *record) {
	names := make([]string, 0, len(rec.Result.Metrics))
	for k := range rec.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "e2ebench: %s seed=%d trace=%t samples=%d\n", rec.Workload, rec.Seed, rec.Trace, rec.Samples)
	for _, k := range names {
		m := rec.Result.Metrics[k]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, m.Value, m.Unit)
	}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

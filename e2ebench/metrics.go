package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// endToEnd lists the metrics an untraced run prints, in BENCHMARK.json
// order; perLayer lists the ones a traced run prints. Every workload
// prints every name: a layer a workload never enters reads 0.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"fidelity_max_err_pct", "%"},
}

var perLayer = []struct{ name, unit string }{
	{"gpusim.build_ms", "ms"},
	{"gpusim.builds", "count"},
	{"gpusim.build_allocs", "count"},
	{"workload.run_ms", "ms"},
	{"workload.run_max_ms", "ms"},
	{"workload.run_allocs", "count"},
	{"obs.spans", "count"},
	{"fabric.hops", "count"},
	{"sim.host_us_per_span", "us"},
	{"runner.cells_computed", "count"},
	{"runner.memo_hit_ratio", "ratio"},
	{"runner.queue_wait_ms", "ms"},
	{"runner.cell_max_ms", "ms"},
	{"core.prefetch_ms", "ms"},
	{"core.render_ms", "ms"},
	{"core.bytes_written", "bytes"},
	{"obs.report_ms", "ms"},
	{"obs.metrics_ms", "ms"},
	{"obs.metrics_bytes", "bytes"},
	{"obs.trace_ms", "ms"},
	{"obs.trace_bytes", "bytes"},
	{"prof.build_ms", "ms"},
	{"pvcd.submit_ms_p50", "ms"},
	{"pvcd.run_ms_p50", "ms"},
	{"pvcd.run_ms_p90", "ms"},
	{"pvcd.repeat_ms_p50", "ms"},
	{"pvcd.run_metrics_ms", "ms"},
	{"pvcd.list_ms", "ms"},
	{"pvcd.list_bytes", "bytes"},
	{"pvcd.cache_hit_ratio", "ratio"},
	{"pvcd.sims_per_submit", "ratio"},
	{"pvcd.rss_kb_per_run", "KB"},
	{"history.journal_bytes_per_run", "bytes"},
	{"history.read_ms", "ms"},
	{"telemetry.scrape_ms", "ms"},
	{"telemetry.scrape_bytes", "bytes"},
	{"pvcd.queue_wait_ms", "ms"},
	{"pvcd.simulate_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the printed metric map from the catalog: names the
// workload measured take their value, the rest read 0.
func fill(catalog []struct{ name, unit string }, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(catalog))
	for _, m := range catalog {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapAllocs reads the process's cumulative heap allocation counters
// (objects and bytes) without stopping the world.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/topology"
	"pvcsim/internal/workload"
)

// probeCell is one cell the layer probe replays: a workload on a
// system, plus the node count of the cluster the workload builds
// inside Run (0 for single-node cells).
type probeCell struct {
	sys   topology.System
	w     workload.Workload
	nodes int
}

// newProbeCell reads the cluster size from the workload's parameters:
// the cluster families (clover-strong, allreduce) carry "nodes=N".
func newProbeCell(sys topology.System, w workload.Workload) probeCell {
	c := probeCell{sys: sys, w: w}
	if !strings.HasPrefix(w.Name(), "clover-strong/") && !strings.HasPrefix(w.Name(), "allreduce/") {
		return c
	}
	for _, f := range strings.Fields(workload.ParamsOf(w)) {
		if v, ok := strings.CutPrefix(f, "nodes="); ok {
			c.nodes, _ = strconv.Atoi(v)
		}
	}
	return c
}

// probe replays cells serially through the public layer entry points,
// with a span around each call, and returns the per-layer totals of
// one pass:
//
//	gpusim.New(topology.NewNode(sys))          gpusim.build
//	gpusim.NewCluster(topology.NewCluster(..)) gpusim.build (cluster cells)
//	Workload.Run on the pre-built machine      workload.run, minus the
//	                                           cluster build it repeats
//	Collector.Report, WriteMetrics,            obs.report, obs.metrics,
//	WriteChromeTrace, prof.Build               obs.trace, prof.build
//
// This is the work the runner and the exporters do for the same cells;
// the replay exists because the benchmark may only time calls it makes
// itself.
func probe(ctx context.Context, cells []probeCell, tr *tracer) (map[string]float64, error) {
	pass := tr.begin("probe", 0)
	defer tr.end(pass)
	v := map[string]float64{}
	col := obs.NewCollector()
	timed := func(name string, fn func() error) (time.Duration, uint64, error) {
		o0, _ := heapAllocs()
		id := tr.begin(name, pass)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		tr.end(id)
		o1, _ := heapAllocs()
		return d, o1 - o0, err
	}
	for _, c := range cells {
		var m *gpusim.Machine
		d, allocs, err := timed("gpusim.build", func() (err error) {
			m, err = gpusim.New(topology.NewNode(c.sys))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("probe: machine for %s: %w", c.sys, err)
		}
		v["gpusim.build_ms"] += ms(d)
		v["gpusim.build_allocs"] += float64(allocs)
		v["gpusim.builds"]++
		var clusterD time.Duration
		var clusterAllocs uint64
		if c.nodes > 0 {
			clusterD, clusterAllocs, err = timed("gpusim.build", func() error {
				_, err := gpusim.NewCluster(topology.NewCluster(c.sys, c.nodes))
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("probe: %d-node %s cluster: %w", c.nodes, c.sys, err)
			}
			v["gpusim.build_ms"] += ms(clusterD)
			v["gpusim.build_allocs"] += float64(clusterAllocs)
			v["gpusim.builds"]++
		}
		key := obs.Key{Workload: c.w.Name(), System: c.sys.String(), Params: workload.ParamsOf(c.w)}
		m.Observe(col.Cell(key))
		d, allocs, err = timed("workload.run", func() error {
			_, err := c.w.Run(ctx, m)
			return err
		})
		col.Finish(key, d, err)
		if err != nil {
			return nil, fmt.Errorf("probe: %s on %s: %w", c.w.Name(), c.sys, err)
		}
		run := max(ms(d)-ms(clusterD), 0)
		v["workload.run_ms"] += run
		v["workload.run_max_ms"] = max(v["workload.run_max_ms"], run)
		v["workload.run_allocs"] += float64(allocs) - float64(clusterAllocs)
	}

	var rep *obs.RunReport
	d, _, _ := timed("obs.report", func() error { rep = col.Report(); return nil })
	v["obs.report_ms"] = ms(d)
	for _, c := range rep.Cells {
		v["obs.spans"] += float64(c.Events)
		for _, ctr := range c.Counters {
			if ctr.Name == "fabric.hops" {
				v["fabric.hops"] += ctr.Value
			}
		}
	}
	var n countWriter
	d, _, err := timed("obs.metrics", func() error { return rep.WriteMetrics(&n) })
	if err != nil {
		return nil, fmt.Errorf("probe: metrics export: %w", err)
	}
	v["obs.metrics_ms"], v["obs.metrics_bytes"] = ms(d), float64(n)
	n = 0
	d, _, err = timed("obs.trace", func() error { return rep.WriteChromeTrace(&n) })
	if err != nil {
		return nil, fmt.Errorf("probe: trace export: %w", err)
	}
	v["obs.trace_ms"], v["obs.trace_bytes"] = ms(d), float64(n)
	d, _, _ = timed("prof.build", func() error { prof.Build(rep); return nil })
	v["prof.build_ms"] = ms(d)
	if v["obs.spans"] > 0 {
		v["sim.host_us_per_span"] = v["workload.run_ms"] * 1e3 / v["obs.spans"]
	}
	return v, nil
}

// probeMedians runs passes probe passes and returns each layer value's
// median across them.
func probeMedians(ctx context.Context, cells []probeCell, tr *tracer, passes int) (map[string]float64, error) {
	all := map[string][]float64{}
	for i := 0; i < passes; i++ {
		v, err := probe(ctx, cells, tr)
		if err != nil {
			return nil, err
		}
		for k, x := range v {
			all[k] = append(all[k], x)
		}
	}
	out := map[string]float64{}
	for k, xs := range all {
		out[k] = median(xs)
	}
	return out, nil
}

// countWriter counts bytes and discards them.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

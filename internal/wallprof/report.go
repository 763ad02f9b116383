package wallprof

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"pvcsim/internal/obs"
)

// WallSchemaVersion is the wall-report schema. The field name is
// distinct from the simulated profile's schema_version on purpose:
// pvcprof auto-detects export kinds by probing for it, and a wall
// report must never be mistaken for (or diffed against) a simulated
// export.
const WallSchemaVersion = 1

// CellReport is one cell's wall-clock profile: runner phases plus the
// engine's run accounting.
type CellReport struct {
	Workload string `json:"workload"`
	System   string `json:"system"`
	Params   string `json:"params,omitempty"`

	BuildMS     float64 `json:"build_ms"`
	SimulateMS  float64 `json:"simulate_ms"`
	CacheWaitMS float64 `json:"cache_wait_ms,omitempty"`
	CacheHits   int64   `json:"cache_hits,omitempty"`

	EngineRuns  int64   `json:"engine_runs"`
	EngineRunMS float64 `json:"engine_run_ms"`
	Events      int64   `json:"events"`
	AllocFresh  int64   `json:"event_alloc_fresh"`
	AllocReused int64   `json:"event_alloc_reused"`
	HeapShrinks int64   `json:"heap_shrinks"`
}

// Name renders the cell's obs.Key.
func (c *CellReport) Name() string {
	return obs.Key{Workload: c.Workload, System: c.System, Params: c.Params}.String()
}

// Report is the machine-readable wall-clock profile of one run. Unlike
// every other export in the repo it is *all* wall time: it is written
// to its own file and never mixed into the simulated artifacts, which
// stay byte-identical whether or not a collector was attached.
type Report struct {
	WallSchema int          `json:"wall_schema_version"`
	ExportMS   float64      `json:"export_ms"`
	Cells      []CellReport `json:"cells"`
}

const msPerNS = 1e-6

// Report merges every cell's profile into the canonical report, cells
// sorted by (workload, system, params). Call it after the run
// completes.
func (c *Collector) Report() *Report {
	rep := &Report{WallSchema: WallSchemaVersion}
	c.mu.Lock()
	rep.ExportMS = float64(c.exportNS) * msPerNS
	c.mu.Unlock()
	for _, cp := range c.sortedCells() {
		rep.Cells = append(rep.Cells, cp.report())
	}
	return rep
}

func (cp *CellProf) report() CellReport {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	out := CellReport{
		Workload:    cp.key.Workload,
		System:      cp.key.System,
		Params:      cp.key.Params,
		BuildMS:     float64(cp.buildNS) * msPerNS,
		SimulateMS:  float64(cp.simNS) * msPerNS,
		CacheWaitMS: float64(cp.cacheWaitNS) * msPerNS,
		CacheHits:   cp.cacheHits,
	}
	if p := cp.probe; p != nil {
		out.EngineRuns = p.runs
		out.EngineRunMS = float64(p.runNS) * msPerNS
		out.Events = p.events
		out.AllocFresh = p.allocFresh
		out.AllocReused = p.allocReused
		out.HeapShrinks = p.shrinks
	}
	return out
}

// WriteJSON writes the report as indented JSON (the -wallprof file).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteReport writes the human table: one row per cell with its phase
// breakdown and engine accounting.
func (r *Report) WriteReport(w io.Writer) error {
	fmt.Fprintf(w, "Wall-clock self-profile: %d cell(s), export %.3g ms\n\n", len(r.Cells), r.ExportMS)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CELL\tBUILD_MS\tSIMULATE_MS\tCACHE_WAIT_MS\tRUNS\tENGINE_MS\tEVENTS\tALLOC_NEW\tALLOC_REUSE\tSHRINKS")
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(tw, "%s\t%.3g\t%.3g\t%.3g\t%d\t%.3g\t%d\t%d\t%d\t%d\n",
			c.Name(), c.BuildMS, c.SimulateMS, c.CacheWaitMS,
			c.EngineRuns, c.EngineRunMS, c.Events, c.AllocFresh, c.AllocReused, c.HeapShrinks)
	}
	return tw.Flush()
}

// WriteFlame writes the wall profile as folded stacks,
//
//	cell;phase[;engine|host] <nanoseconds>
//
// so the same flamegraph tooling that renders simulated bound
// residency renders the simulator's own wall time.
func (r *Report) WriteFlame(w io.Writer) error {
	emit := func(stack string, ms float64) error {
		ns := int64(ms*1e6 + 0.5)
		if ns <= 0 {
			return nil
		}
		_, err := fmt.Fprintf(w, "%s %d\n", stack, ns)
		return err
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		name := c.Name()
		if err := emit(name+";build", c.BuildMS); err != nil {
			return err
		}
		// Inside the simulate phase, split the engine's event loop from
		// the host model code around it.
		if err := emit(name+";simulate;engine", c.EngineRunMS); err != nil {
			return err
		}
		if err := emit(name+";simulate;host", c.SimulateMS-c.EngineRunMS); err != nil {
			return err
		}
		if err := emit(name+";cache-wait", c.CacheWaitMS); err != nil {
			return err
		}
	}
	return emit("export", r.ExportMS)
}

// Chrome trace thread ids of the two tracks every cell process has.
const (
	engineTID = 0
	phaseTID  = 1
)

// WriteChromeTrace writes the wall-time timelines as Chrome trace-event
// JSON — the second track next to the simulated-time trace (load both
// files in the same Perfetto session). One "process" per cell with an
// engine-run track and a runner-phase track. Requires EnableTimeline;
// without it only the process metadata appears. Unlike every simulated
// export this one is wall time and is expected to differ between runs.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	cells := c.sortedCells()
	// Zero the timeline at the earliest recorded instant so the trace
	// starts near t=0 regardless of when the collector was created.
	base := int64(math.MaxInt64)
	for _, cp := range cells {
		cp.mu.Lock()
		for _, ph := range cp.phases {
			base = min(base, ph.start)
		}
		if p := cp.probe; p != nil {
			for _, s := range p.spans {
				base = min(base, s.start)
			}
		}
		cp.mu.Unlock()
	}
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }
	var f obs.TraceFile
	for pid, cp := range cells {
		cp.mu.Lock()
		f.Process(pid, "wall: "+cp.key.String())
		f.Thread(pid, engineTID, "engine")
		f.Thread(pid, phaseTID, "runner phases")
		for _, ph := range cp.phases {
			f.Span(ph.name, "", pid, phaseTID, us(ph.start), float64(ph.end-ph.start)/1e3, nil)
		}
		if p := cp.probe; p != nil {
			for _, s := range p.spans {
				f.Span("run", "", pid, engineTID, us(s.start), float64(s.end-s.start)/1e3,
					map[string]any{"events": s.events})
			}
		}
		cp.mu.Unlock()
	}
	return f.Encode(w)
}

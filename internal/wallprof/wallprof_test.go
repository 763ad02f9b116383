package wallprof_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"pvcsim/internal/obs"
	"pvcsim/internal/sim"
	"pvcsim/internal/units"
	"pvcsim/internal/wallprof"
)

// tickClock is a deterministic injected clock: every reading advances
// by one microsecond, so durations depend only on call counts.
func tickClock() wallprof.Clock {
	var t int64
	return func() int64 {
		t += 1000
		return t
	}
}

// runProbed drives an engine with two interacting processes under a
// probed collector and returns the report.
func runProbed(t *testing.T, c *wallprof.Collector) *wallprof.Report {
	t.Helper()
	cp := c.Cell(obs.Key{Workload: "w", System: "s"})
	e := sim.NewEngine()
	e.SetWallProbe(cp.Probe())
	ready := sim.NewSignal(e)
	e.Go("waiter", func(p *sim.Proc) {
		ready.Wait(p)
		p.Hold(units.Seconds(1e-6))
	})
	e.Go("worker", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			p.Hold(units.Seconds(2e-6))
		}
		ready.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Report()
}

func TestEngineProbeAccounting(t *testing.T) {
	c := wallprof.NewWithClock(tickClock())
	rep := runProbed(t, c)
	if len(rep.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(rep.Cells))
	}
	cell := rep.Cells[0]
	if cell.Name() != "w @ s" {
		t.Errorf("cell name = %q", cell.Name())
	}
	if cell.EngineRuns != 1 {
		t.Errorf("engine runs = %d, want 1", cell.EngineRuns)
	}
	// Two process starts, four worker holds, one wake-up and one waiter
	// hold.
	if cell.Events != 8 {
		t.Errorf("events = %d, want 8", cell.Events)
	}
	if alloc := cell.AllocFresh + cell.AllocReused; alloc != cell.Events {
		t.Errorf("event allocations = %d, want one per event (%d)", alloc, cell.Events)
	}
	if cell.AllocReused == 0 {
		t.Error("no event struct was reused from the free-list")
	}
	if cell.EngineRunMS <= 0 {
		t.Errorf("engine run wall = %v, want > 0 under the tick clock", cell.EngineRunMS)
	}
}

func TestSerialEngineIsOneBurst(t *testing.T) {
	c := wallprof.NewWithClock(tickClock())
	cp := c.Cell(obs.Key{Workload: "serial", System: "s"})
	e := sim.NewEngine()
	e.SetWallProbe(cp.Probe())
	for i := 0; i < 5; i++ {
		e.Schedule(units.Seconds(float64(i)*1e-6), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	cell := c.Report().Cells[0]
	if cell.EngineRuns != 1 || cell.Events != 5 {
		t.Errorf("serial drain: runs=%d events=%d, want one run of five events", cell.EngineRuns, cell.Events)
	}
	if cell.AllocFresh != 5 {
		t.Errorf("alloc fresh = %d, want 5 (cold free-list)", cell.AllocFresh)
	}
}

func TestPhaseTimings(t *testing.T) {
	c := wallprof.NewWithClock(tickClock())
	cp := c.Cell(obs.Key{Workload: "w", System: "s"})
	cp.AddBuild(cp.Now())
	cp.AddSimulate(cp.Now())
	cp.AddCacheHit(cp.Now())
	c.AddExportNS(int64(3 * time.Millisecond))
	cell := c.Report().Cells[0]
	if cell.BuildMS <= 0 || cell.SimulateMS <= 0 || cell.CacheWaitMS <= 0 {
		t.Errorf("phase timings not recorded: %+v", cell)
	}
	if cell.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", cell.CacheHits)
	}
	if got := c.Report().ExportMS; got != 3 {
		t.Errorf("export ms = %v, want 3", got)
	}
}

func TestReportRendering(t *testing.T) {
	c := wallprof.NewWithClock(tickClock())
	rep := runProbed(t, c)

	var human bytes.Buffer
	if err := rep.WriteReport(&human); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Wall-clock self-profile", "w @ s", "SIMULATE_MS", "ENGINE_MS", "EVENTS"} {
		if !strings.Contains(human.String(), want) {
			t.Errorf("report missing %q:\n%s", want, human.String())
		}
	}

	var flame bytes.Buffer
	if err := rep.WriteFlame(&flame); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(flame.String(), "w @ s;simulate;engine ") {
		t.Errorf("flame missing engine stack:\n%s", flame.String())
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back wallprof.Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.WallSchema != wallprof.WallSchemaVersion {
		t.Errorf("schema = %d, want %d", back.WallSchema, wallprof.WallSchemaVersion)
	}
}

func TestChromeTraceTimeline(t *testing.T) {
	c := wallprof.NewWithClock(tickClock())
	c.EnableTimeline()
	runProbed(t, c)
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, ev := range tf.TraceEvents {
		if ev.TS < 0 {
			t.Errorf("negative timestamp on %q", ev.Name)
		}
		if ev.Name == "run" {
			runs++
		}
	}
	if runs != 1 {
		t.Errorf("timeline trace has %d engine runs, want 1", runs)
	}
	if !strings.Contains(buf.String(), "wall: w @ s") {
		t.Error("trace missing the wall process name")
	}
}

// spanSink records the spans a collector writes into it.
type spanSink struct {
	clock wallprof.Clock
	spans []string
}

func (s *spanSink) Now() int64 { return s.clock() }

func (s *spanSink) AddSpanAt(name, detail string, start, end int64) {
	s.spans = append(s.spans, fmt.Sprintf("%s %s %d-%d", name, detail, start, end))
}

// TestNewOnTraceRecordsPhaseSpans: a collector built on a sink reads the
// sink's clock and writes each build and simulate interval into it as
// the phase ends; cache waits write nothing.
func TestNewOnTraceRecordsPhaseSpans(t *testing.T) {
	sink := &spanSink{clock: tickClock()}
	c := wallprof.NewOnTrace(sink)
	cp := c.Cell(obs.Key{Workload: "w", System: "s", Params: "n=2"})
	cp.AddBuild(cp.Now())
	cp.AddSimulate(cp.Now())
	cp.AddCacheHit(cp.Now())
	want := []string{"build w @ s 1000-2000", "simulate w @ s 3000-4000"}
	if strings.Join(sink.spans, "; ") != strings.Join(want, "; ") {
		t.Errorf("sink spans = %q, want %q", sink.spans, want)
	}
}

// TestProbeIsSideChannel reruns the identical model with and without a
// probe and requires identical simulated end times — the probe can
// observe but never steer.
func TestProbeIsSideChannel(t *testing.T) {
	run := func(probed bool) units.Seconds {
		e := sim.NewEngine()
		if probed {
			c := wallprof.New()
			e.SetWallProbe(c.Cell(obs.Key{Workload: "x", System: "y"}).Probe())
		}
		r := sim.NewResource(e, "q", 1)
		for i := 0; i < 3; i++ {
			e.Go("p", func(p *sim.Proc) {
				r.Acquire(p)
				p.Hold(units.Seconds(5e-6))
				r.Release()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	if off, on := run(false), run(true); off != on {
		t.Errorf("probe changed simulated time: off=%v on=%v", off, on)
	}
}

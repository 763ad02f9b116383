package gpusim

import (
	"encoding/json"
	"strings"
	"testing"

	"pvcsim/internal/obs"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// deviceSpans returns the recorded kernel and memcpy spans in canonical
// order, dropping the fabric flow spans the network adds alongside.
func deviceSpans(tr *obs.Trace) []obs.Span {
	var out []obs.Span
	for _, s := range tr.Spans() {
		if s.Cat != "flow" {
			out = append(out, s)
		}
	}
	return out
}

func TestRecorderCapturesTimeline(t *testing.T) {
	m := MustNew(topology.NewAurora())
	tr := obs.NewTrace()
	m.Observe(tr)
	if m.Observer() != tr {
		t.Fatal("recorder accessor")
	}
	st, _ := m.Stack(topology.StackID{})
	prof := perfmodel.Profile{Name: "triad", MemBytes: units.Bytes(2.4e9), Kind: perfmodel.KindStream}
	m.Go("work", func(p *sim.Proc) {
		st.MemcpyH2D(p, 500*units.MB)
		st.LaunchKernel(p, prof)
		st.MemcpyD2H(p, 500*units.MB)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	evs := deviceSpans(tr)
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	kinds := []string{"h2d", "kernel", "d2h"}
	for i, e := range evs {
		if e.Cat != kinds[i] {
			t.Errorf("event %d kind = %s, want %s", i, e.Cat, kinds[i])
		}
		if e.End <= e.Start {
			t.Errorf("event %d has non-positive duration", i)
		}
		if e.GPU != 0 || e.Stack != 0 {
			t.Errorf("event %d on gpu %d stack %d, want 0.0", i, e.GPU, e.Stack)
		}
	}
	// Sequential ops do not overlap.
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].End {
			t.Errorf("event %d overlaps previous", i)
		}
	}
}

func TestRecorderDisabledByDefault(t *testing.T) {
	m := MustNew(topology.NewAurora())
	st, _ := m.Stack(topology.StackID{})
	m.Go("work", func(p *sim.Proc) { st.MemcpyH2D(p, 1*units.MB) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Observer() != nil {
		t.Error("recorder should default to nil")
	}
}

func TestChromeTraceExport(t *testing.T) {
	m := MustNew(topology.NewDawn())
	col := obs.NewCollector()
	key := obs.Key{Workload: "k", System: "dawn"}
	m.Observe(col.Cell(key))
	for _, st := range m.Stacks()[:4] {
		s := st
		m.Go("k", func(p *sim.Proc) {
			s.LaunchKernel(p, perfmodel.Profile{Name: "fma", Flops: 1e12, Kind: perfmodel.KindPeakFlops})
		})
	}
	err := m.Run()
	col.Finish(key, 0, err)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := col.Report().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var kernels []map[string]any
	for _, e := range parsed.TraceEvents {
		if e["ph"] == "X" {
			kernels = append(kernels, e)
		}
	}
	if len(kernels) != 4 {
		t.Fatalf("complete events = %d, want 4", len(kernels))
	}
	if kernels[0]["name"] != "fma" || kernels[0]["cat"] != "kernel" {
		t.Errorf("trace format: %v", kernels[0])
	}
}

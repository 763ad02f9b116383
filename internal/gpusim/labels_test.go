package gpusim

import (
	"sort"
	"testing"

	"pvcsim/internal/obs"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// TestFlowSpanNames pins the recorded flow span names, which are built
// only when a recorder is attached, to their established text for every
// transfer path that records a flow: h2d, d2h, d2d to the sibling stack
// and across cards, and n2n. (A copy within one stack is latency-only
// and records no flow span.)
func TestFlowSpanNames(t *testing.T) {
	m := MustNew(topology.NewAurora())
	tr := obs.NewTrace()
	m.Observe(tr)
	s00 := topology.StackID{GPU: 0, Stack: 0}
	s01 := topology.StackID{GPU: 0, Stack: 1}
	s11 := topology.StackID{GPU: 1, Stack: 1}
	st, err := m.Stack(s00)
	if err != nil {
		t.Fatal(err)
	}
	m.Go("copies", func(p *sim.Proc) {
		st.MemcpyH2D(p, units.MB)
		st.MemcpyD2H(p, units.MB)
		if err := st.MemcpyD2D(p, s01, units.MB); err != nil {
			t.Error(err)
		}
		f, err := st.StartD2D(s11, units.MB)
		if err != nil {
			t.Error(err)
			return
		}
		f.Wait(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	c := auroraCluster(t, 2)
	ctr := obs.NewTrace()
	c.Observe(ctr)
	c.Go("remote", func(p *sim.Proc) {
		f, err := c.StartRemote(0, s01, 1, s11, units.MB)
		if err != nil {
			t.Error(err)
			return
		}
		f.Wait(p)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, s := range append(tr.Spans(), ctr.Spans()...) {
		if s.Cat == "flow" {
			got = append(got, s.Name)
		}
	}
	sort.Strings(got)
	want := []string{"d2d:0.0->0.1", "d2d:0.0->1.1", "d2h:0.0", "h2d:0.0", "n2n:n0/0.1->n1/1.1"}
	if len(got) != len(want) {
		t.Fatalf("flow spans = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("flow span %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// d2dAllocBudget is the allocation count of one unobserved StartD2D and
// Wait on a sibling stack, pinned at the measured value. Most of it is
// the process and the engine run around the transfer; the transfer adds
// the flow, its direction set, its latency and completion closures, its
// waiter list and the wake-up closure. A label or signal name formatted
// on the unobserved path adds at least one allocation and fails the
// test.
const d2dAllocBudget = 15

func TestAllocBudgetUnobservedD2D(t *testing.T) {
	m := MustNew(topology.NewAurora())
	st, err := m.Stack(topology.StackID{GPU: 0, Stack: 0})
	if err != nil {
		t.Fatal(err)
	}
	dst := topology.StackID{GPU: 0, Stack: 1}
	body := func(p *sim.Proc) {
		f, err := st.StartD2D(dst, units.MB)
		if err != nil {
			panic(err)
		}
		f.Wait(p)
	}
	run := func() {
		m.Go("d2d", body)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the event free-list and the flow set
	if got := testing.AllocsPerRun(200, run); got > d2dAllocBudget {
		t.Errorf("unobserved StartD2D+Wait: %.1f allocs per run, budget %d", got, d2dAllocBudget)
	}
}

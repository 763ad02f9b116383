package fabric

import (
	"strings"
	"testing"

	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
)

func TestLabelText(t *testing.T) {
	a := topology.StackID{GPU: 0, Stack: 1}
	b := topology.StackID{GPU: 11, Stack: 0}
	for _, c := range []struct {
		l    Label
		want string
	}{
		{Name("probe"), "probe"},
		{StackLabel("h2d", a), "h2d:0.1"},
		{RouteLabel("d2d", a, b), "d2d:0.1->11.0"},
		{NodeRouteLabel("n2n", 0, a, 12, b), "n2n:n0/0.1->n12/11.0"},
	} {
		if got := c.l.String(); got != c.want {
			t.Errorf("label = %q, want %q", got, c.want)
		}
	}
}

// TestDeadlockNamesFlowSignal checks that a process stuck on a flow
// that never completes is reported under the flow's label, which the
// completion signal builds only for the report.
func TestDeadlockNamesFlowSignal(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	// Never admitted, so never finished: its waiter deadlocks.
	f := n.newFlow(RouteLabel("d2d", topology.StackID{GPU: 0, Stack: 0}, topology.StackID{GPU: 1, Stack: 1}), "", 1, nil)
	e.Go("waiter", f.Wait)
	err := e.Run()
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	const want = "; blocked: 1 on signal flow d2d:0.0->1.1"
	if !strings.HasSuffix(err.Error(), want) {
		t.Errorf("deadlock error %q does not end with %q", err, want)
	}
}

package workload

import (
	"context"
	"testing"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/topology"
)

// cloverStrongAllocBudget is the allocation count of one unobserved
// clover-strong cell (2-node Aurora, spread placement: cluster build,
// 24 ranks, halo exchanges over the node-local and inter-node fabric),
// pinned at the measured value: 5203, and 5205 under the race detector.
// A per-transfer label, a per-wait blocker key or a per-build name
// formatted with fmt adds hundreds of allocations and fails the test.
const cloverStrongAllocBudget = 5205

func TestAllocBudgetCloverStrongCell(t *testing.T) {
	w := NewCloverStrongCell("clover-strong", topology.Aurora, 2, topology.PlaceSpread)
	m, err := gpusim.New(topology.NewAurora())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func() {
		if _, err := w.Run(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(20, run); got > cloverStrongAllocBudget {
		t.Errorf("clover-strong cell: %.0f allocs per run, budget %d", got, cloverStrongAllocBudget)
	}
}

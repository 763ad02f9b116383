// Timeline: trace a pipelined GPU workload — H2D upload, compute kernel,
// halo exchange, D2H readback on every Aurora stack — and export a
// Chrome-trace JSON (load it at ui.perfetto.dev) plus a per-stack
// utilization summary. Demonstrates recording a machine into an
// obs.Collector.
package main

import (
	"fmt"
	"log"
	"os"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/hw"
	"pvcsim/internal/mpirt"
	"pvcsim/internal/obs"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

func main() {
	log.SetFlags(0)

	node := topology.NewAurora()
	machine, err := gpusim.New(node)
	if err != nil {
		log.Fatal(err)
	}
	col := obs.NewCollector()
	key := obs.Key{Workload: "timeline", System: node.Name}
	machine.Observe(col.Cell(key))

	comm, err := mpirt.NewComm(machine, node.TotalStacks())
	if err != nil {
		log.Fatal(err)
	}

	const steps = 3
	compute := perfmodel.Profile{
		Name:      "stencil",
		MemBytes:  4 * units.GB, // bandwidth-bound sweep over a 4 GB state
		Precision: hw.FP64,
		Kind:      perfmodel.KindStream,
	}
	err = comm.Spawn(func(p *sim.Proc, r *mpirt.Rank) {
		// Initial upload.
		r.Stack.MemcpyH2D(p, 2*units.GB)
		for step := 0; step < steps; step++ {
			r.Stack.LaunchKernel(p, compute)
			// Ring halo exchange.
			right := (r.Rank() + 1) % r.Size()
			left := (r.Rank() - 1 + r.Size()) % r.Size()
			sreq, err := r.Isend(p, right, step, 64*units.MB)
			if err != nil {
				panic(err)
			}
			rreq, err := r.Irecv(left, step)
			if err != nil {
				panic(err)
			}
			mpirt.WaitAll(p, sreq, rreq)
		}
		// Result readback.
		r.Stack.MemcpyD2H(p, 512*units.MB)
	})
	col.Finish(key, 0, err)
	if err != nil {
		log.Fatal(err)
	}
	rep := col.Report()

	// Per-stack busy time: the sum of each stack's device spans (kernels
	// and memcpys; fabric flows carry no stack and are skipped).
	total := machine.Eng.Now()
	busy := map[topology.StackID]units.Seconds{}
	events := 0
	for _, sp := range rep.Cells[0].Spans() {
		if sp.GPU < 0 {
			continue
		}
		busy[topology.StackID{GPU: sp.GPU, Stack: sp.Stack}] += sp.Duration()
		events++
	}
	fmt.Printf("simulated %d ranks x %d steps in %v of virtual time\n", node.TotalStacks(), steps, total)
	fmt.Printf("%d device events recorded\n\n", events)
	for _, id := range node.Subdevices() {
		util := float64(busy[id]) / float64(total) * 100
		fmt.Printf("%v: busy %v (%.0f%%)\n", id, busy[id], util)
	}

	f, err := os.Create("timeline.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := rep.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote timeline.json (open with ui.perfetto.dev)")
}

// Command nodeinfo prints the modeled single-node system inventories of
// Section III — CPUs, memory, GPUs, interconnects, power caps, Xe-Link
// plane tables and rank bindings — for inspection and for comparing
// against the paper's system descriptions.
//
// With the shared observability flags (-trace, -metrics, -profile) it
// additionally drives one richly-simulating fabric probe (the
// CloverLeaf scaling workload, which exercises kernels, MDFI, and the
// Xe-Link planes) per described system, so the described topology can
// be inspected in motion, not just on paper.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pvcsim/internal/hw"
	"pvcsim/internal/power"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nodeinfo: ")
	system := flag.String("system", "", "one system (aurora|dawn|h100|mi250|frontier); default all")
	bindings := flag.Bool("bindings", false, "print the full rank-to-core binding table")
	config := flag.String("config", "", "describe a custom node from a JSON config file instead")
	jobs := flag.Int("jobs", 1, "parallel probe workers when observability output is requested; 0 = all CPUs")
	var obsf runner.ObsFlags
	obsf.Register(flag.CommandLine)
	flag.Parse()

	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			log.Fatal(err)
		}
		node, err := topology.LoadNodeConfig(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		describe(node, *bindings)
		return
	}

	// nodeinfo is a what-if tool, so it describes the extended system
	// set (paper systems plus Frontier); the paper tables stay on
	// AllSystems.
	systems := topology.AllSystemsExtended()
	if *system != "" {
		sys, err := topology.ParseSystem(*system)
		if err != nil {
			log.Fatal(err)
		}
		systems = []topology.System{sys}
	}

	for _, sys := range systems {
		node := topology.NewNode(sys)
		describe(node, *bindings)
		fmt.Println()
	}

	if obsf.Enabled() {
		if err := probe(&obsf, *jobs, systems); err != nil {
			log.Fatal(err)
		}
	}
}

// probe runs the CloverLeaf scaling workload on each system through an
// observed runner, then writes the requested trace/metrics/profile
// files plus the per-cell summary.
func probe(obsf *runner.ObsFlags, jobs int, systems []topology.System) error {
	reg := sweep.DefaultRegistry()
	w, ok := reg.Get("clover-scaling")
	if !ok {
		return fmt.Errorf("fabric probe workload clover-scaling not registered")
	}
	r := runner.New(jobs)
	obsf.Attach(r)
	var cells []runner.Cell
	for _, sys := range systems {
		cells = append(cells, runner.Cell{System: sys, Workload: w})
	}
	for _, res := range r.Run(context.Background(), cells) {
		if res.Err != nil {
			return fmt.Errorf("fabric probe on %s: %w", res.System, res.Err)
		}
	}
	return obsf.Finish(os.Stderr)
}

func describe(node *topology.NodeSpec, withBindings bool) {
	fmt.Printf("=== %s ===\n", node.Name)
	cpu := node.CPU
	fmt.Printf("CPUs:      %d x %s, %d cores/%d threads total\n",
		cpu.Sockets, cpu.Model, cpu.TotalCores(), cpu.TotalCores()*cpu.ThreadsPerCore)
	fmt.Printf("Host mem:  %v DDR", cpu.DDR)
	if cpu.HBM > 0 {
		fmt.Printf(" + %v CPU HBM", cpu.HBM)
	}
	fmt.Printf(", %v/socket sustained\n", cpu.MemBWPerSocket)

	gpu := node.GPU
	fmt.Printf("GPUs:      %d x %s (%d subdevice(s) each, %d ranks in explicit scaling)\n",
		node.GPUCount, gpu.Name, gpu.SubCount, node.TotalStacks())
	fmt.Printf("  per sub: %d %ss, %v HBM at %v sustained (%v spec)\n",
		gpu.Sub.CoreCount, coreName(gpu), gpu.Sub.Memory, gpu.Sub.MemBWSustained, gpu.Sub.MemBWTheoretical)
	gov := power.NewGovernor(gpu)
	fmt.Printf("  power:   %g W cap/card; governed clocks: FP64 %v, FP32 %v, matrix %v (max %v)\n",
		gpu.PowerCapW,
		gov.OperatingClock(hw.VectorFP64), gov.OperatingClock(hw.VectorFP32),
		gov.OperatingClock(hw.MatrixLow), gpu.Power.MaxClock)
	fmt.Printf("  caches: ")
	for i, c := range gpu.Sub.Caches {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s %v @ %.0f cycles", c.Name, c.Capacity.IEC(), c.LatencyCycles)
	}
	fmt.Println()
	fmt.Printf("  links:   host %s (%v uni, %.2fx duplex)",
		gpu.HostLink.Name, gpu.HostLink.Sustained(), gpu.HostLink.DuplexFactor)
	if gpu.SubCount > 1 {
		fmt.Printf("; internal %s (%v)", gpu.InternalLink.Name, gpu.InternalLink.Sustained())
	}
	fmt.Printf("; peer %s (%v)\n", gpu.PeerLink.Name, gpu.PeerLink.Sustained())
	fmt.Printf("Host pools: H2D %v, D2H %v, bidir %v\n",
		node.HostH2DPool, node.HostD2HPool, node.HostBidirPool)

	if len(node.Planes) > 0 {
		for i, plane := range node.Planes {
			ids := make([]string, len(plane))
			for j, s := range plane {
				ids[j] = s.String()
			}
			fmt.Printf("Xe-Link plane %d: %s\n", i, strings.Join(ids, ", "))
		}
		// The §IV-A4 routing example on Aurora-like tables.
		a, b := topology.StackID{GPU: 0, Stack: 0}, topology.StackID{GPU: 1, Stack: 0}
		fmt.Printf("Routing example: %v -> %v is %v\n", a, b, node.Route(a, b))
	}

	if withBindings {
		bind, err := node.BindRanks(node.TotalStacks())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Rank bindings (rank -> stack, socket, core):")
		for _, rb := range bind {
			fmt.Printf("  rank %2d -> %v socket %d core %d\n", rb.Rank, rb.Stack, rb.Socket, rb.Core)
		}
	}
	_ = units.KB // keep the units import for the Bytes formatting used above
}

func coreName(gpu *hw.DeviceSpec) string {
	switch gpu.Vendor {
	case "Intel":
		return "Xe-Core"
	case "NVIDIA":
		return "SM"
	default:
		return "CU"
	}
}

// Command apps evaluates the two full science applications — OpenMC
// (Monte Carlo particle transport) and CRK-HACC (cosmological N-body +
// SPH) — on the simulated nodes, regenerating the application rows of
// Table VI and reporting the mechanism analyses (OpenMC's effective
// cross-section access latency per architecture and HACC's GPU/CPU time
// breakdown). It also runs small real instances of both physics codes as
// self-checks. The shared observability flags (-trace, -metrics,
// -profile) record the computed cells' simulated timelines, counters,
// and bound-attribution profile (see pvcprof).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"pvcsim/internal/apps/hacc"
	"pvcsim/internal/apps/openmc"
	"pvcsim/internal/core"
	"pvcsim/internal/expected"
	"pvcsim/internal/paper"
	"pvcsim/internal/report"
	"pvcsim/internal/runner"
	"pvcsim/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("apps: ")
	skipCheck := flag.Bool("skip-selfcheck", false, "skip the physics self-checks")
	keff := flag.Bool("keff", false, "run the OpenMC eigenvalue (k-effective) demonstration and exit")
	list := flag.Bool("list", false, "enumerate the registered workloads and exit")
	workloadName := flag.String("workload", "", "run one registered workload by name and exit")
	jobs := flag.Int("jobs", 1, "parallel simulation workers; 0 = all CPUs")
	var obsf runner.ObsFlags
	obsf.Register(flag.CommandLine)
	flag.Parse()

	study := core.NewParallelStudy(*jobs)
	obsf.Attach(study.Runner())
	defer func() {
		if err := obsf.Finish(os.Stderr); err != nil {
			log.Fatal(err)
		}
	}()
	if *list {
		if _, err := runner.List(os.Stdout, study.Registry(), ""); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *workloadName != "" {
		err := runner.RunNamed(context.Background(), os.Stdout, study.Runner(), study.Registry(),
			*workloadName, nil, false)
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if *keff {
		if err := runKeffDemo(); err != nil {
			log.Fatal(err)
		}
		return
	}

	if !*skipCheck {
		if err := selfCheck(); err != nil {
			log.Fatalf("self-check failed: %v", err)
		}
		fmt.Println("physics self-checks passed (transport k-infinity, N-body conservation, CRK constants)")
		fmt.Println()
	}

	t := report.NewTable("Table VI (applications): full-node figures of merit",
		"Application", "System", "Full Node", "Paper")
	appFOM := func(w paper.Workload, sys topology.System) float64 {
		v, ok, err := study.FOM(w, sys, expected.PerNode)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			log.Fatalf("no full-node %s figure of merit for %s", w, sys)
		}
		return v
	}
	for _, sys := range []topology.System{topology.Aurora, topology.JLSEH100, topology.JLSEMI250} {
		t.AddRow("OpenMC", sys.String(), report.Num(appFOM(paper.OpenMC, sys)),
			report.Num(paper.TableVI[paper.OpenMC][sys].FullNode))
	}
	for _, sys := range topology.AllSystems() {
		t.AddRow("HACC", sys.String(), report.Num(appFOM(paper.HACC, sys)),
			report.Num(paper.TableVI[paper.HACC][sys].FullNode))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	fmt.Println("OpenMC mechanism: effective cross-section access latency (300 MB working set)")
	for _, sys := range topology.AllSystems() {
		node := topology.NewNode(sys)
		fmt.Printf("  %-12s %6.0f ns  (L2 per subdevice: %v)\n",
			sys, openmc.AccessLatencyNs(sys), node.GPU.Sub.Caches[1].Capacity.IEC())
	}
	fmt.Println()

	fmt.Println("HACC mechanism: step-time breakdown (GPU FP32 vs CPU memory bandwidth)")
	for _, sys := range topology.AllSystems() {
		g, c := hacc.Breakdown(sys)
		fmt.Printf("  %-12s GPU %4.0f%%  CPU %4.0f%%\n", sys, g*100, c*100)
	}
}

// runKeffDemo runs the power iteration across slab thicknesses and shows
// convergence to the analytic infinite-medium k.
func runKeffDemo() error {
	mat := openmc.TwoGroupFuel()
	kInf, err := openmc.KInfinity(mat)
	if err != nil {
		return err
	}
	fmt.Printf("two-group depleted-fuel material: analytic k-infinity = %.4f\n\n", kInf)
	fmt.Println("thickness [cm]   k-eff      sigma")
	for _, th := range []float64{3, 10, 30, 100, 1000} {
		res, err := openmc.SolveEigenvalue(openmc.EigenvalueOptions{
			Material: mat, Thickness: th, Particles: 4000, Inactive: 5, Active: 15, Seed: 42,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%10.0f      %7.4f   %7.4f\n", th, res.K, res.KStd)
	}
	fmt.Println("\nk-eff rises toward k-infinity as leakage vanishes with thickness.")
	return nil
}

func selfCheck() error {
	// Transport: thick slab approaches analytic k-infinity.
	mat := openmc.TwoGroupFuel()
	kInf, err := openmc.KInfinity(mat)
	if err != nil {
		return err
	}
	res, err := openmc.RunSlab(mat, 2000, 20000, 10, 42)
	if err != nil {
		return err
	}
	if math.Abs(res.KEstimate-kInf) > 0.05*kInf {
		return fmt.Errorf("transport k = %v, analytic %v", res.KEstimate, kInf)
	}
	// N-body: momentum conservation over a short run.
	sys, err := hacc.NewRandomSystem(50, 7)
	if err != nil {
		return err
	}
	m0 := sys.Momentum()
	for i := 0; i < 10; i++ {
		sys.Step(1e-3)
	}
	m1 := sys.Momentum()
	for k := 0; k < 3; k++ {
		if math.Abs(m1[k]-m0[k]) > 1e-10 {
			return fmt.Errorf("momentum drift %v", m1[k]-m0[k])
		}
	}
	// CRK: corrected kernel reproduces constants.
	h := 0.35
	rho := hacc.SPHDensity(sys.Particles, h)
	a := hacc.CRKCorrection(sys.Particles, rho, h)
	field := make([]float64, len(sys.Particles))
	for i := range field {
		field[i] = 3.0
	}
	if got := hacc.CRKInterpolate(sys.Particles, rho, a, field, h, 10); math.Abs(got-3.0) > 1e-9 {
		return fmt.Errorf("CRK interpolation = %v, want 3.0", got)
	}
	return nil
}

package core

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/wallprof"
)

// TestExperimentsMarkdownMatchesCommitted regenerates the complete
// artifact set and requires its EXPERIMENTS.md to equal the committed
// copy at the repository root byte for byte: the fidelity table the
// README quotes is the one the code produces.
func TestExperimentsMarkdownMatchesCommitted(t *testing.T) {
	dir := t.TempDir()
	if err := NewStudy().WriteAllArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("regenerated EXPERIMENTS.md differs from the committed copy: %s", firstDiff(want, got))
	}
}

// goldenExports renders the metrics, trace and profile exports of every
// golden subject, keyed by the file names pvcbench would write them
// under:
//
//	pvcbench -jobs 1 -workload W -metrics W.metrics.json -trace W.trace.json -profile W.profile.json
//	pvcbench -jobs 1 -sweep F -metrics sweep-F.metrics.json -trace sweep-F.trace.json -profile sweep-F.profile.json
//
// Each subject runs on a fresh study and collector, as one pvcbench
// process would. With wall set, a wall-clock self-profiling collector
// rides along (timeline included, as -wall-trace attaches it).
func goldenExports(t *testing.T, wall bool) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	engineRuns := int64(0)
	export := func(prefix string, run func(*Study) error) {
		study := NewParallelStudy(1)
		col := obs.NewCollector()
		study.Runner().Observe(col)
		var wc *wallprof.Collector
		if wall {
			wc = wallprof.New()
			wc.EnableTimeline()
			study.Runner().ProfileWall(wc)
		}
		if err := run(study); err != nil {
			t.Fatalf("%s: %v", prefix, err)
		}
		if wc != nil {
			// Render both wall exports so the full report path runs.
			wr := wc.Report()
			if err := wr.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
			for _, c := range wr.Cells {
				engineRuns += c.EngineRuns
			}
			if err := wc.WriteChromeTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		rep := col.Report()
		for suffix, write := range map[string]func(io.Writer) error{
			".metrics.json": rep.WriteMetrics,
			".trace.json":   rep.WriteChromeTrace,
			".profile.json": prof.Build(rep).WriteJSON,
		} {
			var b bytes.Buffer
			if err := write(&b); err != nil {
				t.Fatalf("%s%s: %v", prefix, suffix, err)
			}
			out[prefix+suffix] = b.Bytes()
		}
	}
	for _, name := range []string{"clover-scaling", "p2p", "pcie-bidir"} {
		export(name, func(s *Study) error {
			return runner.RunNamed(context.Background(), io.Discard, s.Runner(), s.Registry(), name, nil, false)
		})
	}
	for _, name := range []string{"clover-strong", "allreduce"} {
		export("sweep-"+name, func(s *Study) error {
			f, ok := sweep.FamilyByName(name)
			if !ok {
				t.Fatalf("no sweep family %q", name)
			}
			cells, err := f.Expand(nil)
			if err != nil {
				return err
			}
			var rcells []runner.Cell
			for _, w := range cells {
				for _, sys := range w.Systems() {
					rcells = append(rcells, runner.Cell{System: sys, Workload: w})
				}
			}
			for _, res := range s.Runner().Run(context.Background(), rcells) {
				if res.Err != nil {
					return res.Err
				}
			}
			return nil
		})
	}
	// A variant that silently stopped attaching the profiler would pass
	// the digest check vacuously.
	if wall && engineRuns == 0 {
		t.Fatal("wallprof rode along but measured no engine run")
	}
	return out
}

// TestGoldenExportDigests pins the simulated observability exports of
// the engine-driving subjects — the CloverLeaf weak- and strong-scaling
// runs, the P2P and PCIe transfer cells, and the allreduce sweep — to
// the SHA-256 digests in testdata/golden/exports.sha256 (sha256sum
// format). Any change to event order, float accumulation order or span
// content in the engine, fabric or MPI layers shows up here, named by
// the file that drifted.
func TestGoldenExportDigests(t *testing.T) { checkGoldenDigests(t, goldenExports(t, false)) }

// TestGoldenExportDigestsWithWallprof is the purity claim of the
// wall-clock self-profiling layer: with a wallprof collector attached,
// every golden export must still match its digest. The profiler may
// observe the simulation but never perturb it.
func TestGoldenExportDigestsWithWallprof(t *testing.T) {
	checkGoldenDigests(t, goldenExports(t, true))
}

// checkGoldenDigests compares rendered exports against the committed
// digest file.
func checkGoldenDigests(t *testing.T, got map[string][]byte) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "golden", "exports.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		want[fields[1]] = fields[0]
		names = append(names, fields[1])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("rendered %d export files, digest file lists %d", len(got), len(want))
	}
	for _, name := range names {
		b, ok := got[name]
		if !ok {
			t.Errorf("%s: listed in exports.sha256 but not rendered", name)
			continue
		}
		sum := sha256.Sum256(b)
		if g := hex.EncodeToString(sum[:]); g != want[name] {
			t.Errorf("%s drifted from its golden digest: sha256 %s, want %s", name, g, want[name])
		}
	}
}

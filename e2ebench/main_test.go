package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func testOptions(t *testing.T) options {
	return options{workload: "cluster-sweeps", seed: 7, root: "..", refs: "refs", tmp: t.TempDir()}
}

// A wrong reference value must fail every op that checks it, and the
// loop must count those ops as failed.
func TestPlantedClusterValueIsCounted(t *testing.T) {
	ctx := context.Background()
	c := &clusterSweeps{}
	_, warm, err := c.setup(ctx, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range warm {
		if s.err != nil {
			t.Fatalf("warm-up op failed against the committed references: %v", s.err)
		}
	}
	for key, vals := range c.want {
		for k := range vals {
			vals[k] *= 1.0000001
			break
		}
		t.Logf("planted a wrong value in %s", key)
		break
	}
	loop := runLoop(ctx, c, 300*time.Millisecond, nil)
	if len(loop.samples) == 0 {
		t.Fatal("loop ran no ops")
	}
	if got := loop.failed(); got != len(loop.samples) {
		t.Fatalf("%d of %d ops counted as failed, want all", got, len(loop.samples))
	}
}

func TestPlantedArtifactDigestIsCounted(t *testing.T) {
	ctx := context.Background()
	o := testOptions(t)
	p := &paperArtifacts{}
	_, warm, err := p.setup(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range warm {
		if s.err != nil {
			t.Fatalf("warm-up op failed against the committed references: %v", s.err)
		}
	}
	p.want["table3.csv"] = "0000"
	loop := runLoop(ctx, p, 200*time.Millisecond, nil)
	if len(loop.samples) == 0 || loop.failed() != len(loop.samples) {
		t.Fatalf("%d of %d ops counted as failed, want all", loop.failed(), len(loop.samples))
	}
}

func TestDigestMismatch(t *testing.T) {
	if err := checkDigest([]byte("{}"), "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a", "k"); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	if err := checkDigest([]byte("{ }"), "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a", "k"); err == nil {
		t.Fatal("mismatching digest accepted")
	}
}

// BENCHMARK.json must declare exactly the metrics the program prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := newBench(w.Name); err != nil {
			t.Error(err)
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	tr := newTracer()
	base := tr.t0
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	op := tr.add("op", 0, at(0), at(100))
	tr.add("cell", op, at(10), at(50))
	tr.add("cell", op, at(40), at(70)) // overlaps the first cell
	self := tr.selfTimes()
	if got, want := self["op"], 40*time.Millisecond; got != want {
		t.Errorf("op self time %v, want %v", got, want)
	}
	if got, want := self["cell"], 70*time.Millisecond; got != want {
		t.Errorf("cell self time %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 4.6 {
		t.Errorf("p90 %v, want 4.6", got)
	}
}

package mpirt

import (
	"testing"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// runCollective spawns the body on nranks Aurora ranks and requires a
// clean (deadlock-free) completion that leaves every inbox empty: a
// matched message leaves its inbox, so none outlives its receive.
func runCollective(t *testing.T, nranks int, body func(p *sim.Proc, r *Rank)) {
	t.Helper()
	c := auroraComm(t, nranks)
	done := 0
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		body(p, r)
		done++
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != nranks {
		t.Fatalf("only %d of %d ranks completed", done, nranks)
	}
	for _, r := range c.ranks {
		if n := len(r.inbox); n != 0 {
			t.Fatalf("rank %d inbox holds %d received messages after the run", r.rank, n)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 12} {
		for root := 0; root < n; root += 3 {
			rt := root
			runCollective(t, n, func(p *sim.Proc, r *Rank) {
				if err := r.Bcast(p, rt, 100, 1*units.MB); err != nil {
					t.Errorf("n=%d root=%d rank %d: %v", n, rt, r.Rank(), err)
				}
			})
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	runCollective(t, 2, func(p *sim.Proc, r *Rank) {
		if err := r.Bcast(p, 5, 1, 10); err == nil {
			t.Error("invalid root should fail")
		}
	})
}

func TestReduceAllRoots(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 12} {
		for root := 0; root < n; root += 5 {
			rt := root
			runCollective(t, n, func(p *sim.Proc, r *Rank) {
				if err := r.Reduce(p, rt, 200, 512*units.KB); err != nil {
					t.Errorf("n=%d root=%d: %v", n, rt, err)
				}
			})
		}
	}
	runCollective(t, 2, func(p *sim.Proc, r *Rank) {
		if err := r.Reduce(p, -1, 1, 10); err == nil {
			t.Error("invalid root should fail")
		}
	})
}

func TestGather(t *testing.T) {
	for _, n := range []int{1, 4, 12} {
		runCollective(t, n, func(p *sim.Proc, r *Rank) {
			if err := r.Gather(p, 0, 300, 64*units.KB); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		})
	}
	runCollective(t, 2, func(p *sim.Proc, r *Rank) {
		if err := r.Gather(p, 9, 1, 10); err == nil {
			t.Error("invalid root should fail")
		}
	})
}

func TestAllgatherRing(t *testing.T) {
	for _, n := range []int{1, 2, 6, 12} {
		runCollective(t, n, func(p *sim.Proc, r *Rank) {
			if err := r.Allgather(p, 400, 256*units.KB); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		})
	}
}

func TestReduceScatter(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		runCollective(t, n, func(p *sim.Proc, r *Rank) {
			if err := r.ReduceScatter(p, 500, 128*units.KB); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		})
	}
}

func TestAllreduceRing(t *testing.T) {
	for _, n := range []int{1, 2, 4, 12} {
		runCollective(t, n, func(p *sim.Proc, r *Rank) {
			if err := r.AllreduceRing(p, 600, 12*units.MB); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		})
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{1, 2, 5, 12} {
		runCollective(t, n, func(p *sim.Proc, r *Rank) {
			if err := r.Alltoall(p, 700, 32*units.KB); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		})
	}
}

// Algorithm comparison: for large messages the ring allreduce should
// finish no slower than recursive doubling on the Aurora fabric (it moves
// 2(n−1)/n of the data per rank instead of log2(n) full copies).
func TestRingBeatsRecursiveDoublingForLargeMessages(t *testing.T) {
	size := units.Bytes(200 * units.MB)
	timeOf := func(ring bool) units.Seconds {
		m := gpusim.MustNew(topology.NewAurora())
		c, err := NewComm(m, 12)
		if err != nil {
			t.Fatal(err)
		}
		var finish units.Seconds
		err = c.Spawn(func(p *sim.Proc, r *Rank) {
			var e error
			if ring {
				e = r.AllreduceRing(p, 10, size)
			} else {
				e = r.Allreduce(p, size, 10)
			}
			if e != nil {
				t.Error(e)
			}
			if p.Now() > finish {
				finish = p.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return finish
	}
	ring := timeOf(true)
	rd := timeOf(false)
	if !(ring < rd) {
		t.Errorf("ring %v should beat recursive doubling %v at 200 MB", ring, rd)
	}
}

// nextPow2 helper sanity.
func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// Collectives also complete on every other standard node (different
// fabric shapes must not deadlock the schedules).
func TestCollectivesOnAllSystems(t *testing.T) {
	for _, sys := range topology.AllSystems() {
		node := topology.NewNode(sys)
		m := gpusim.MustNew(node)
		c, err := NewComm(m, node.TotalStacks())
		if err != nil {
			t.Fatal(err)
		}
		err = c.Spawn(func(p *sim.Proc, r *Rank) {
			if err := r.Bcast(p, 0, 1, 1*units.MB); err != nil {
				t.Error(err)
			}
			if err := r.AllreduceRing(p, 50, 4*units.MB); err != nil {
				t.Error(err)
			}
			if err := r.Alltoall(p, 90, 64*units.KB); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
	}
}

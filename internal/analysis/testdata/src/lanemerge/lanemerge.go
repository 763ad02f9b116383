// Fixture for the maprange analyzer's schedule-sensitive sites: the
// event heap runs same-time events in admission sequence, so an
// Engine.Schedule / Signal.Fire / Go issued from a map-range body bakes
// iteration order into the simulated schedule itself — on the serial
// engine just as on any parallel one. The fix is the same
// collect-sort-replay idiom the fabric reschedule loop uses for drained
// flows.
package fixture

import "sort"

// engine stands in for sim.Engine; the analyzer keys on method names,
// not receiver types, because the sites it guards span sim, fabric and
// gpusim wrappers.
type engine struct{}

func (engine) Schedule(after float64, fn func()) {}
func (engine) Go(name string, body func())       {}
func (engine) Fire()                             {}
func (engine) Pending() int                      { return 0 }

type flow struct {
	seq  int
	done engine
}

func badScheduleFromMap(e engine, delays map[string]float64) {
	for _, d := range delays {
		e.Schedule(d, func() {}) // want `Schedule inside a range over a map admits simulation events`
	}
}

func badFireFromMap(flows map[*flow]bool) {
	for f := range flows {
		f.done.Fire() // want `Fire inside a range over a map admits simulation events`
	}
}

func badSpawnFromMap(e engine, bodies map[string]func()) {
	for name, body := range bodies {
		e.Go(name, body) // want `Go inside a range over a map admits simulation events`
	}
}

// The repair idiom: collect into a slice, order by admission sequence,
// then fire from the sorted slice — exactly how the fabric network
// finishes simultaneously-drained flows.
func goodSortedFire(flows map[*flow]bool) {
	var drained []*flow
	for f := range flows {
		if f.seq >= 0 {
			drained = append(drained, f)
		}
	}
	sort.Slice(drained, func(i, j int) bool { return drained[i].seq < drained[j].seq })
	for _, f := range drained {
		f.done.Fire()
	}
}

// Scheduling from a slice range is ordered; nothing to report.
func goodSliceSchedule(e engine, delays []float64) {
	for _, d := range delays {
		e.Schedule(d, func() {})
	}
}

// Reading engine state inside a map range is fine — only admission
// sinks leak the order.
func goodQueryFromMap(engines map[string]engine) int {
	total := 0
	for _, e := range engines {
		total += e.Pending()
	}
	return total
}

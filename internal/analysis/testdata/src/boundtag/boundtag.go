// Package boundfixture exercises the boundtag analyzer: the prof bound
// taxonomy is a closed set, so constant strings reaching a parameter
// named "bound" or a struct field named Bound must be members, and a
// switch over the fixed tags must be exhaustive or carry a default.
package boundfixture

// Sample stands in for any callee with a "bound" parameter (such as
// fabric.StartBound): the analyzer keys on the parameter name in the
// callee's signature, not on the callee.
func Sample(r any, bound string, v float64) {}

// Span mimics obs.Span's tagged field.
type Span struct {
	Name  string
	Bound string
}

func tagged() {
	Sample(nil, "hbm", 1)          // fixed tag
	Sample(nil, "compute.fp64", 1) // prefix family
	Sample(nil, "cache.l2", 1)     // prefix family
	Sample(nil, "", 1)             // untagged is legal (blocking flows)
	Sample(nil, "hbmm", 1)         // want `boundtag: unknown bound tag "hbmm"`
	Sample(nil, "compute.", 1)     // want `boundtag: unknown bound tag "compute\."`
	_ = Span{Name: "k", Bound: "fabric.remote"}
	_ = Span{Name: "k", Bound: "fabricremote"} // want `boundtag: unknown bound tag "fabricremote"`
}

func classify(bound string) int {
	switch bound { // want `boundtag: switch over bound tags covers 2 of 8 fixed bounds`
	case "hbm":
		return 1
	case "pcie":
		return 2
	}
	return 0
}

func classifyDefault(bound string) int {
	switch bound { // a default clause absorbs future tags
	case "hbm", "pcie":
		return 1
	default:
		return 0
	}
}

func classifyMisspelled(bound string) int {
	switch bound {
	case "hbm":
		return 1
	case "pcie":
		return 2
	case "fabric.remote-xplain": // want `boundtag: unknown bound tag "fabric\.remote-xplain" in a switch`
		return 3
	default:
		return 0
	}
}

func notABoundSwitch(system string) int {
	switch system { // one fixed tag is not enough to classify the switch
	case "aurora":
		return 1
	case "hbm":
		return 2
	}
	return 0
}

func annotated() {
	//pvclint:ignore boundtag fixture exercises the escape hatch
	Sample(nil, "nope", 1)
}

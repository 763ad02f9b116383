package fabric

import (
	"strconv"

	"pvcsim/internal/topology"
)

// Label names a flow. It keeps the parts of the name and builds the text
// only when something reads it — a recorded flow span or a deadlock
// report — so an unobserved transfer formats nothing. The text is the
// kind alone for a plain name ("t"), "kind:src" for one endpoint
// ("d2d:0.0"), and "kind:src->dst" for two ("d2d:0.0->1.1"); cluster
// endpoints carry their node ("n2n:n0/0.0->n1/0.0").
type Label struct {
	kind     string
	ends     int8 // endpoints in use: 0, 1 or 2
	src, dst endpoint
}

// endpoint is one stack end of a label; node < 0 omits the node prefix.
type endpoint struct {
	node  int
	stack topology.StackID
}

// Name labels a flow with a fixed string.
func Name(name string) Label { return Label{kind: name} }

// StackLabel labels a flow that touches one stack: "kind:s".
func StackLabel(kind string, s topology.StackID) Label {
	return Label{kind: kind, ends: 1, src: endpoint{-1, s}}
}

// RouteLabel labels a flow between two stacks of one node:
// "kind:src->dst".
func RouteLabel(kind string, src, dst topology.StackID) Label {
	return Label{kind: kind, ends: 2, src: endpoint{-1, src}, dst: endpoint{-1, dst}}
}

// NodeRouteLabel labels a flow between stacks on two cluster nodes:
// "kind:n<srcNode>/src->n<dstNode>/dst".
func NodeRouteLabel(kind string, srcNode int, src topology.StackID, dstNode int, dst topology.StackID) Label {
	return Label{kind: kind, ends: 2, src: endpoint{srcNode, src}, dst: endpoint{dstNode, dst}}
}

// String builds the label text.
func (l Label) String() string {
	if l.ends == 0 {
		return l.kind
	}
	b := make([]byte, 0, len(l.kind)+24)
	b = append(b, l.kind...)
	b = append(b, ':')
	b = l.src.append(b)
	if l.ends == 2 {
		b = append(b, "->"...)
		b = l.dst.append(b)
	}
	return string(b)
}

func (e endpoint) append(b []byte) []byte {
	if e.node >= 0 {
		b = append(b, 'n')
		b = strconv.AppendInt(b, int64(e.node), 10)
		b = append(b, '/')
	}
	return append(b, e.stack.String()...)
}

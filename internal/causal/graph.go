// Package causal implements the causal-inference substrate the paper's
// causal fairness metrics and causal pre-processing approaches rely on: a
// DAG type over dataset attributes, reachability queries, mediator
// discovery, and empirical adjustment-formula estimators for the
// Total Effect (TE), Natural Direct Effect (NDE), and Natural Indirect
// Effect (NIE) of the sensitive attribute on a prediction (Pearl 2009;
// Zhang et al. Theorems 4-5 as quoted in the paper's appendix).
//
// Node naming convention: attribute nodes use the attribute name from the
// dataset schema; the sensitive attribute uses the dataset's SName and the
// outcome node the dataset's YName.
package causal

import (
	"fmt"
	"sort"
)

// Graph is a directed acyclic graph over named nodes.
type Graph struct {
	nodes   []string
	index   map[string]int
	parents map[int][]int
	kids    map[int][]int
}

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	return &Graph{
		index:   map[string]int{},
		parents: map[int][]int{},
		kids:    map[int][]int{},
	}
}

// AddNode registers a node; adding an existing node is a no-op.
func (g *Graph) AddNode(name string) {
	if _, ok := g.index[name]; ok {
		return
	}
	g.index[name] = len(g.nodes)
	g.nodes = append(g.nodes, name)
}

// AddEdge adds the directed edge from -> to, creating missing nodes. It
// returns an error if the edge would introduce a cycle.
func (g *Graph) AddEdge(from, to string) error {
	g.AddNode(from)
	g.AddNode(to)
	u, v := g.index[from], g.index[to]
	if u == v {
		return fmt.Errorf("causal: self-loop on %q", from)
	}
	if g.reach(v, u) {
		return fmt.Errorf("causal: edge %s->%s would create a cycle", from, to)
	}
	g.parents[v] = append(g.parents[v], u)
	g.kids[u] = append(g.kids[u], v)
	return nil
}

// MustEdge is AddEdge that panics on error; used for the hard-coded
// literature graphs (Appendix C) where cycles indicate a coding bug.
func (g *Graph) MustEdge(from, to string) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// Has reports whether a node exists.
func (g *Graph) Has(name string) bool { _, ok := g.index[name]; return ok }

// Parents returns the sorted parent names of a node.
func (g *Graph) Parents(name string) []string {
	id, ok := g.index[name]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(g.parents[id]))
	for _, p := range g.parents[id] {
		out = append(out, g.nodes[p])
	}
	sort.Strings(out)
	return out
}

// Children returns the sorted child names of a node.
func (g *Graph) Children(name string) []string {
	id, ok := g.index[name]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(g.kids[id]))
	for _, c := range g.kids[id] {
		out = append(out, g.nodes[c])
	}
	sort.Strings(out)
	return out
}

// reach reports whether v is reachable from u by directed edges.
func (g *Graph) reach(u, v int) bool {
	if u == v {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			return true
		}
		if seen[x] {
			continue
		}
		seen[x] = true
		stack = append(stack, g.kids[x]...)
	}
	return false
}

// Descendants returns the set of nodes reachable from name (excluding it).
func (g *Graph) Descendants(name string) map[string]bool {
	out := map[string]bool{}
	id, ok := g.index[name]
	if !ok {
		return out
	}
	stack := append([]int(nil), g.kids[id]...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nm := g.nodes[x]
		if out[nm] {
			continue
		}
		out[nm] = true
		stack = append(stack, g.kids[x]...)
	}
	return out
}

// Ancestors returns the set of nodes from which name is reachable
// (excluding it).
func (g *Graph) Ancestors(name string) map[string]bool {
	out := map[string]bool{}
	id, ok := g.index[name]
	if !ok {
		return out
	}
	stack := append([]int(nil), g.parents[id]...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nm := g.nodes[x]
		if out[nm] {
			continue
		}
		out[nm] = true
		stack = append(stack, g.parents[x]...)
	}
	return out
}

// Mediators returns the attributes lying on a directed path from s to y
// other than s and y themselves: descendants of s that are ancestors of y.
// These are the Z attributes of the NDE/NIE formulas.
func (g *Graph) Mediators(s, y string) []string {
	desc := g.Descendants(s)
	anc := g.Ancestors(y)
	var out []string
	for n := range desc {
		if n != y && anc[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// HasDirectedPath reports whether a directed path from -> to exists.
func (g *Graph) HasDirectedPath(from, to string) bool {
	u, ok := g.index[from]
	if !ok {
		return false
	}
	v, ok := g.index[to]
	if !ok {
		return false
	}
	return g.reach(u, v)
}

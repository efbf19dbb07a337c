package qodg

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/csr"
)

// PathScratch carries the reusable state of a longest-path sweep: the
// dist/from relaxation vectors and their multi-column counterparts. A zero
// PathScratch is ready to use; buffers grow to the largest graph seen and
// are reused across calls, so a warm scratch performs no allocation. Not
// safe for concurrent use; pool one per worker.
type PathScratch struct {
	dist    []float64
	from    []NodeID
	distM   []float64 // SoA multi-column dist: column c of node v at [v*K+c]
	fromM   []NodeID  // SoA multi-column from, same layout
	weightM []float64 // SoA multi-column weights, same layout (packed columns)
}

// grow is csr.Grow under a local name: resize, reallocating only when the
// capacity is insufficient, contents unspecified.
func grow[T any](buf []T, n int) []T { return csr.Grow(buf, n) }

// CriticalPath holds the result of a longest-path query.
type CriticalPath struct {
	// Length is the total weight along the heaviest start→end path.
	Length float64
	// Nodes lists the path's node IDs from start to end (inclusive).
	Nodes []NodeID
	// CountByType counts operation nodes on the path per gate type; the
	// paper's N_CNOT^critical and N_g^critical.
	CountByType map[circuit.GateType]int
}

// LongestPath computes the critical path under the given node weights (the
// O(|V|+|E|) DAG longest-path algorithm the paper cites; the node array is
// already in topological order).
func (g *Graph) LongestPath(w Weights) (CriticalPath, error) {
	return g.LongestPathInto(w, nil)
}

// LongestPathInto is LongestPath with caller-owned scratch: a warm
// PathScratch makes the sweep allocation-free apart from the returned
// path and count map. A nil scratch allocates a temporary one.
func (g *Graph) LongestPathInto(w Weights, s *PathScratch) (CriticalPath, error) {
	if len(w) != len(g.Nodes) {
		return CriticalPath{}, fmt.Errorf("qodg: %d weights for %d nodes", len(w), len(g.Nodes))
	}
	if s == nil {
		s = new(PathScratch)
	}
	n := len(g.Nodes)
	s.dist = grow(s.dist, n)
	s.from = grow(s.from, n)
	g.relaxSerial(w, s.dist, s.from)
	return g.recoverPath(s.dist, s.from), nil
}

// LongestPathSerial is LongestPathInto with freshly allocated state and no
// scratch: the oracle the pull-based multi-column sweep must match bitwise.
func (g *Graph) LongestPathSerial(w Weights) (CriticalPath, error) {
	if len(w) != len(g.Nodes) {
		return CriticalPath{}, fmt.Errorf("qodg: %d weights for %d nodes", len(w), len(g.Nodes))
	}
	n := len(g.Nodes)
	dist := make([]float64, n)
	from := make([]NodeID, n)
	g.relaxSerial(w, dist, from)
	return g.recoverPath(dist, from), nil
}

// relaxSerial runs the push relaxation over the topological node order:
// for each node u in order, every successor edge (u,v) offers dist[u]+w[v].
// The first offer a node sees is always taken (from[v] == -1), later offers
// only when strictly greater — so ties resolve to the lowest-ID predecessor.
func (g *Graph) relaxSerial(w Weights, dist []float64, from []NodeID) {
	clear(dist)
	for i := range from {
		from[i] = -1
	}
	n := len(g.Nodes)
	for u := 0; u < n; u++ {
		du := dist[u]
		for _, v := range g.Succ(NodeID(u)) {
			if cand := du + w[v]; cand > dist[v] || from[v] == -1 {
				dist[v] = cand
				from[v] = NodeID(u)
			}
		}
	}
}

// recoverPath walks the from-chain backwards from the end node, sizing the
// path slice exactly in a first pass and filling it in place in a second —
// no append/reverse round trip.
func (g *Graph) recoverPath(dist []float64, from []NodeID) CriticalPath {
	return g.recoverPathStrided(dist, from, 1, 0)
}

// recoverPathStrided is recoverPath over one column of the SoA multi-column
// slabs: node v's state for column col sits at dist[v*stride+col] /
// from[v*stride+col]. Stride 1, column 0 is exactly the single-column layout.
func (g *Graph) recoverPathStrided(dist []float64, from []NodeID, stride, col int) CriticalPath {
	end := g.End()
	at := func(v NodeID) NodeID { return from[int(v)*stride+col] }
	cp := CriticalPath{
		Length:      dist[int(end)*stride+col],
		CountByType: make(map[circuit.GateType]int),
	}
	steps := 0
	for v := end; ; v = at(v) {
		steps++
		if v == 0 || at(v) == -1 {
			break
		}
	}
	cp.Nodes = make([]NodeID, steps)
	i := steps - 1
	for v := end; ; v = at(v) {
		cp.Nodes[i] = v
		i--
		if v == 0 || at(v) == -1 {
			break
		}
	}
	for _, id := range cp.Nodes {
		if node := g.Nodes[id]; !node.IsPseudo() {
			cp.CountByType[node.Op.Type]++
		}
	}
	return cp
}

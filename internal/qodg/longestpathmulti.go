package qodg

import "fmt"

// Multi-weight critical-path sweep: K weight columns relaxed per node visit
// in one traversal. A circuit × K-params grid row re-weights the same QODG K
// times; the single-column sweep would stream the CSR adjacency through
// cache once per column. The multi kernel keeps every per-node array in the
// same SoA layout — column c of node v at [v*K+c] for distance, from and
// weight alike — so one node's K states share cache lines and the inner
// loop is column-contiguous, and visits every edge exactly once, relaxing
// all K columns against it. Each column's relaxation order, float
// expression and tie rule are identical to the single-column sweep, so
// every column of the result is bitwise equal to LongestPathSerial under
// that column's weights.

// LongestPathMulti computes the critical path under each of K independent
// weight columns in one traversal of the graph. Column c of the result is
// bitwise identical to LongestPath(ws[c]). An empty ws returns nil.
func (g *Graph) LongestPathMulti(ws []Weights, s *PathScratch) ([]CriticalPath, error) {
	if err := g.validateColumns(ws); err != nil {
		return nil, err
	}
	if len(ws) == 0 {
		return nil, nil
	}
	if len(ws) == 1 {
		cp, err := g.LongestPathInto(ws[0], s)
		if err != nil {
			return nil, err
		}
		return []CriticalPath{cp}, nil
	}
	if s == nil {
		s = new(PathScratch)
	}
	return g.LongestPathMultiStrided(g.packColumns(ws, s), len(ws), s)
}

// LongestPathMultiStrided is LongestPathMulti over an interleaved weight
// slab: column c of node v weighs wm[v*K+c]. Callers that assemble weights
// per node (one K-row per gate) hand the slab over directly and skip the
// column-major packing step. len(wm) must be at least K × the node count.
func (g *Graph) LongestPathMultiStrided(wm []float64, k int, s *PathScratch) ([]CriticalPath, error) {
	n := len(g.Nodes)
	if err := validateSlab(wm, n, k); err != nil {
		return nil, err
	}
	if k == 0 {
		return nil, nil
	}
	if k == 1 {
		// A one-column slab is already a Weights vector; the specialized
		// single-column sweep avoids the strided kernel's per-node slice
		// overhead and is the bitwise definition the multi kernel chases.
		cp, err := g.LongestPathInto(Weights(wm[:n]), s)
		if err != nil {
			return nil, err
		}
		return []CriticalPath{cp}, nil
	}
	if s == nil {
		s = new(PathScratch)
	}
	s.distM = grow(s.distM, n*k)
	s.fromM = grow(s.fromM, n*k)
	g.relaxMulti(wm, s.distM[:n*k], s.fromM[:n*k], k)
	return g.recoverPaths(s.distM, s.fromM, k), nil
}

// LongestPathMultiSerial forces the serial relaxation over all K columns —
// the batched counterpart of LongestPathSerial, with freshly allocated
// state.
func (g *Graph) LongestPathMultiSerial(ws []Weights) ([]CriticalPath, error) {
	if err := g.validateColumns(ws); err != nil {
		return nil, err
	}
	if len(ws) == 0 {
		return nil, nil
	}
	n, k := len(g.Nodes), len(ws)
	wm := make([]float64, n*k)
	packColumnsInto(ws, wm)
	dist := make([]float64, n*k)
	from := make([]NodeID, n*k)
	g.relaxMulti(wm, dist, from, k)
	return g.recoverPaths(dist, from, k), nil
}

func (g *Graph) validateColumns(ws []Weights) error {
	for c, w := range ws {
		if len(w) != len(g.Nodes) {
			return fmt.Errorf("qodg: column %d: %d weights for %d nodes", c, len(w), len(g.Nodes))
		}
	}
	return nil
}

func validateSlab(wm []float64, n, k int) error {
	if len(wm) < n*k {
		return fmt.Errorf("qodg: weight slab holds %d entries, want %d nodes × %d columns", len(wm), n, k)
	}
	return nil
}

// packColumns transposes column-major weight vectors into the scratch's
// interleaved slab.
func (g *Graph) packColumns(ws []Weights, s *PathScratch) []float64 {
	s.weightM = grow(s.weightM, len(g.Nodes)*len(ws))
	packColumnsInto(ws, s.weightM)
	return s.weightM
}

func packColumnsInto(ws []Weights, wm []float64) {
	k := len(ws)
	for c, w := range ws {
		for v, wv := range w {
			wm[v*k+c] = wv
		}
	}
}

// relaxMulti finalizes all K columns of every node. Node IDs are
// topologically ordered, so by the time the pass reaches v every
// predecessor's row is final and v can pull its own max — a pull form that
// reproduces relaxSerial's push byte-for-byte: predecessors arrive in the
// ascending order the push offers them in, the first offer is always taken
// and later offers only when strictly greater, with the identical
// dist[p]+w[v] expression.
func (g *Graph) relaxMulti(wm, dist []float64, from []NodeID, k int) {
	for v := range g.Nodes {
		g.relaxNodeMulti(wm, dist, from, k, NodeID(v))
	}
}

// relaxNodeMulti writes node v's K-column dist/from row from its finalized
// predecessors. The first predecessor's offer is taken unconditionally and
// later ones only when strictly greater — exactly the push tie rule, which
// hands ties to the lowest-ID predecessor. A node without predecessors gets
// the ground state the push would have left untouched. Every row the loop
// touches — v's weights, v's state, each predecessor's distances — is a
// K-contiguous slice, so the node visit streams whole cache lines.
func (g *Graph) relaxNodeMulti(wm, dist []float64, from []NodeID, k int, v NodeID) {
	vb := int(v) * k
	dv := dist[vb : vb+k]
	fv := from[vb : vb+k]
	preds := g.Pred(v)
	if len(preds) == 0 {
		for c := range dv {
			dv[c] = 0
			fv[c] = -1
		}
		return
	}
	wv := wm[vb : vb+k]
	p0 := preds[0]
	pb := int(p0) * k
	dp := dist[pb : pb+k]
	for c, wc := range wv {
		dv[c] = dp[c] + wc
		fv[c] = p0
	}
	for _, p := range preds[1:] {
		pb := int(p) * k
		dp := dist[pb : pb+k]
		for c, wc := range wv {
			if cand := dp[c] + wc; cand > dv[c] {
				dv[c] = cand
				fv[c] = p
			}
		}
	}
}

// recoverPaths splits the K-column slabs into per-column CriticalPaths.
func (g *Graph) recoverPaths(dist []float64, from []NodeID, k int) []CriticalPath {
	cps := make([]CriticalPath, k)
	for c := 0; c < k; c++ {
		cps[c] = g.recoverPathStrided(dist, from, k, c)
	}
	return cps
}

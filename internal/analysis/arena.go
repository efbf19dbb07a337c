package analysis

import (
	"repro/internal/circuit"
	"repro/internal/csr"
	"repro/internal/iig"
	"repro/internal/qodg"
)

// Arena is the reusable scratch state of the estimate hot path: every
// buffer Analyze and the critical-path sweep would otherwise allocate per
// call — node array, degree arrays, CSR adjacency, DepScanner state, IIG
// incidence, the weight vector and the longest-path dist/from vectors —
// owned once and recycled across circuits. A zero Arena is ready to use;
// buffers grow to the largest circuit seen and stay warm, so a steady-state
// worker analyzes and estimates with near-zero heap allocation.
//
// An Arena is not safe for concurrent use. The Analysis returned by
// (*Arena).Analyze aliases arena memory and is valid only until the next
// Analyze on the same arena; estimator Results derived from it do not alias
// the arena and stay valid forever.
type Arena struct {
	scan             qodg.DepScanner
	nodes            []qodg.Node
	succDeg, predDeg []int32
	iigDeg           []int32
	succOff, predOff []int32
	succ, pred       []qodg.NodeID
	iigOff, iigNbr   []int32

	qg         qodg.Graph
	igs        iig.Scratch
	a          Analysis
	lastWriter []qodg.NodeID

	weights qodg.Weights
	multiW  []float64
	path    qodg.PathScratch
}

// NewArena returns an empty arena. Equivalent to new(Arena); provided so
// callers outside the package don't depend on the zero value being usable.
func NewArena() *Arena { return new(Arena) }

// Analyze is analysis.Analyze into the arena: identical validation, graph
// topology and error behavior, but every backing array comes from the
// arena. The returned Analysis (and both its graphs) aliases arena memory —
// treat it as borrowed until the next Analyze on this arena.
func (ar *Arena) Analyze(c *circuit.Circuit) (*Analysis, error) {
	return analyzeSerial(c, ar)
}

// WeightsFor builds the node weight vector for g in the arena's reusable
// buffer — the allocation-free counterpart of qodg.Graph.NewWeights.
func (ar *Arena) WeightsFor(g *qodg.Graph, weightOf func(circuit.Gate) float64) qodg.Weights {
	ar.weights = g.NewWeightsInto(ar.weights, weightOf)
	return ar.weights
}

// Path returns the arena's longest-path scratch for qodg.LongestPathInto.
func (ar *Arena) Path() *qodg.PathScratch { return &ar.path }

// MultiWeightSlab returns a reusable interleaved weight slab for a k-column
// sweep over g — column c of node v at [v*k+c], the layout
// qodg.LongestPathMultiStrided consumes. Contents unspecified: the batched
// estimator overwrites every row in its fused node scan. The slab grows to
// the widest (nodes × columns) batch seen and is recycled across calls.
func (ar *Arena) MultiWeightSlab(g *qodg.Graph, k int) []float64 {
	ar.multiW = csr.Grow(ar.multiW, g.NumNodes()*k)
	return ar.multiW
}

// growClear resizes buf to n and zeroes it — degree arrays must start the
// counting pass at zero.
func growClear(buf []int32, n int) []int32 {
	buf = csr.Grow(buf, n)
	clear(buf)
	return buf
}

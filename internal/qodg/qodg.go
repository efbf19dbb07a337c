// Package qodg implements the Quantum Operation Dependency Graph of the
// LEQA paper (§2, Fig. 2b): nodes are FT quantum operations, edges capture
// data dependencies through logical qubits, and dedicated start/end nodes
// anchor the first- and last-level operations. Parallel edges between the
// same node pair are merged.
//
// The graph is a DAG whose node order is already topological (gates are
// appended in program order; edges only go from earlier to later gates), so
// longest-path queries run in a single linear sweep.
//
// Adjacency is stored in compressed-sparse-row (CSR) form: one flat edge
// array per direction plus an offset array, filled by a counting pass and a
// fill pass over the gate stream. No per-node slices or maps are allocated
// and no post-hoc sort/dedup is needed — duplicate dependency edges always
// target the same node and are rejected while that node's edges are
// generated, and successor lists come out sorted because target IDs only
// grow during the scan.
package qodg

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/csr"
)

// NodeID indexes nodes in a Graph. Start is always 0; End is always
// len(Nodes)-1; operation nodes occupy 1..len(Nodes)-2 in program order.
// It is 32 bits wide, like the CSR offsets, which halves the edge arrays
// and critical-path node lists of every resident graph and result.
type NodeID int32

// MaxGates is the most operations one Graph can hold: node IDs are int32,
// and the start and end anchors take two of them. Every builder that mints
// node IDs rejects longer gate streams instead of wrapping around.
const MaxGates = math.MaxInt32 - 2

// maxGates is the bound Build and BuildReference enforce; a variable so
// tests can reach it without a 2^31-gate circuit.
var maxGates = MaxGates

// GateLimitError is the error a builder returns once a gate stream reaches
// n operations, over limit (MaxGates outside tests).
func GateLimitError(n, limit int) error {
	return fmt.Errorf("qodg: %d operations exceed the %d-operation graph limit (node IDs are int32)", n, limit)
}

// Node is one vertex of the QODG.
type Node struct {
	ID NodeID
	// Op is the gate this node represents. The zero Gate (Type ==
	// circuit.Invalid) marks the start and end pseudo-nodes.
	Op circuit.Gate
	// GateIndex is the index of Op in the source circuit, or -1 for the
	// start/end nodes.
	GateIndex int
}

// IsPseudo reports whether the node is the start or end anchor.
func (n Node) IsPseudo() bool { return n.GateIndex < 0 }

// Graph is the QODG. Edges are stored as CSR adjacency in both directions;
// merged parallel edges appear once. Use Succ/Pred to iterate a node's
// neighbors; the returned slices view the shared edge arrays, so treat them
// as read-only.
type Graph struct {
	Nodes []Node
	// NumQubits is the register size of the source circuit.
	NumQubits int

	succOff []int32 // len(Nodes)+1 offsets into succ
	succ    []NodeID
	predOff []int32 // len(Nodes)+1 offsets into pred
	pred    []NodeID
}

// Start returns the start pseudo-node's ID (always 0).
func (g *Graph) Start() NodeID { return 0 }

// End returns the end pseudo-node's ID.
func (g *Graph) End() NodeID { return NodeID(len(g.Nodes) - 1) }

// NumNodes returns |V| including the two pseudo-nodes.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns |E| after parallel-edge merging.
func (g *Graph) NumEdges() int { return len(g.succ) }

// Succ returns the successors of node u in increasing order. The slice
// aliases the graph's edge array; do not append to it.
func (g *Graph) Succ(u NodeID) []NodeID { return g.succ[g.succOff[u]:g.succOff[u+1]] }

// Pred returns the predecessors of node u in increasing order. The slice
// aliases the graph's edge array; do not append to it.
func (g *Graph) Pred(u NodeID) []NodeID { return g.pred[g.predOff[u]:g.predOff[u+1]] }

// OutDegree returns len(Succ(u)) without materializing the slice.
func (g *Graph) OutDegree(u NodeID) int { return int(g.succOff[u+1] - g.succOff[u]) }

// NewNodes builds the node array for a circuit: start anchor, one node per
// gate in program order, end anchor. Shared by Build and the fused
// analysis-layer builder.
func NewNodes(c *circuit.Circuit) []Node {
	return NewNodesInto(nil, c)
}

// NewNodesInto is NewNodes into a reusable buffer: buf's backing array is
// reused when large enough, so a warm arena builds the node array without
// allocating. Every slot is overwritten.
func NewNodesInto(buf []Node, c *circuit.Circuit) []Node {
	n := len(c.Gates) + 2
	if cap(buf) < n {
		buf = make([]Node, n)
	}
	buf = buf[:n]
	buf[0] = Node{ID: 0, GateIndex: -1}
	for i, gate := range c.Gates {
		buf[i+1] = Node{ID: NodeID(i + 1), Op: gate, GateIndex: i}
	}
	buf[n-1] = Node{ID: NodeID(n - 1), GateIndex: -1}
	return buf
}

// DepScanner streams the merged dependency edges of a circuit: for each
// gate node it reports the set of distinct predecessor nodes (the last
// writers of the gate's qubits), then advances the per-qubit last-writer
// state. Running the same scan twice — a counting pass and a fill pass —
// builds CSR adjacency without any per-node allocation; the analysis layer
// reuses the scanner to fuse the IIG build into the same gate loop.
type DepScanner struct {
	last    []NodeID // last node touching each qubit; 0 = start anchor
	scratch []NodeID // per-gate distinct sources
}

// NewDepScanner returns a scanner over numQubits qubits.
func NewDepScanner(numQubits int) *DepScanner {
	return &DepScanner{last: make([]NodeID, numQubits)}
}

// NewDepScannerAt returns a scanner resuming from an existing per-qubit
// last-writer state (copied) — the seed of the incremental analysis
// appender, which continues a finished scan instead of replaying it.
func NewDepScannerAt(last []NodeID) *DepScanner {
	s := &DepScanner{last: make([]NodeID, len(last))}
	copy(s.last, last)
	return s
}

// Reset rewinds the scanner so a second identical pass can run.
func (s *DepScanner) Reset() {
	clear(s.last)
}

// GrowTo extends the scanner's register to numQubits mid-scan, initializing
// the new qubits to the start anchor — the streaming path's counterpart of
// ResetFor, used when a .qc stream auto-declares qubits as it goes.
func (s *DepScanner) GrowTo(numQubits int) {
	for len(s.last) < numQubits {
		s.last = append(s.last, 0)
	}
}

// Last exposes the per-qubit last-writer state (0 = start anchor). The
// slice is live scanner state; treat it as read-only.
func (s *DepScanner) Last() []NodeID { return s.last }

// ResetFor resizes the scanner to numQubits and rewinds it — the arena path
// that reuses one scanner across circuits of different register sizes.
func (s *DepScanner) ResetFor(numQubits int) {
	if cap(s.last) < numQubits {
		s.last = make([]NodeID, numQubits)
		return
	}
	s.last = s.last[:numQubits]
	clear(s.last)
}

// VisitGate emits (from, id) once per distinct dependency source of the
// gate occupying node id, then records id as the last writer of the gate's
// qubits. Duplicate sources (two operands last touched by the same node)
// are merged here, which is exhaustive: every edge into id is generated by
// this single call, so duplicates can never arrive later.
func (s *DepScanner) VisitGate(id NodeID, g circuit.Gate, emit func(from, to NodeID)) {
	s.scratch = s.scratch[:0]
	for _, q := range g.Controls {
		s.visitQubit(id, q, emit)
	}
	for _, q := range g.Targets {
		s.visitQubit(id, q, emit)
	}
}

func (s *DepScanner) visitQubit(id NodeID, q int, emit func(from, to NodeID)) {
	from := s.last[q]
	s.last[q] = id
	for _, f := range s.scratch {
		if f == from {
			return
		}
	}
	s.scratch = append(s.scratch, from)
	emit(from, id)
}

// VisitEnd emits the final-level edges: one (last[q], end) edge per qubit,
// merged across qubits sharing a last writer. Call after every gate has
// been visited.
func (s *DepScanner) VisitEnd(end NodeID, emit func(from, to NodeID)) {
	s.scratch = s.scratch[:0]
	for q := range s.last {
		from := s.last[q]
		dup := false
		for _, f := range s.scratch {
			if f == from {
				dup = true
				break
			}
		}
		if !dup {
			s.scratch = append(s.scratch, from)
			emit(from, end)
		}
	}
}

// Build constructs the QODG from a circuit. Dependencies follow the last
// operation that touched each qubit; the start node feeds each qubit's first
// operation and each qubit's final operation feeds the end node. If two
// dependency edges connect the same ordered node pair (e.g. a CNOT followed
// immediately by another CNOT on the same two qubits) they are merged.
func Build(c *circuit.Circuit) (*Graph, error) {
	if len(c.Gates) > maxGates {
		return nil, GateLimitError(len(c.Gates), maxGates)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	nodes := NewNodes(c)
	n := len(nodes)
	succDeg := make([]int32, n+1)
	predDeg := make([]int32, n+1)
	scan := NewDepScanner(c.NumQubits())
	count := func(from, to NodeID) {
		succDeg[from]++
		predDeg[to]++
	}
	end := NodeID(n - 1)
	for i, gate := range c.Gates {
		scan.VisitGate(NodeID(i+1), gate, count)
	}
	scan.VisitEnd(end, count)

	g := &Graph{Nodes: nodes, NumQubits: c.NumQubits()}
	g.succOff, g.succ = csr.Offsets[NodeID](succDeg)
	g.predOff, g.pred = csr.Offsets[NodeID](predDeg)
	fill := func(from, to NodeID) {
		g.succ[succDeg[from]] = to
		succDeg[from]++
		g.pred[predDeg[to]] = from
		predDeg[to]++
	}
	scan.Reset()
	for i, gate := range c.Gates {
		scan.VisitGate(NodeID(i+1), gate, fill)
	}
	scan.VisitEnd(end, fill)
	sortPredSegments(g.predOff, g.pred)
	return g, nil
}

// sortPredSegments orders each predecessor list ascending. Fill order is
// qubit order, not ID order; segments are tiny (a node's in-degree is at
// most its gate's arity; the end node's at most Q), so insertion sort wins.
func sortPredSegments(off []int32, pred []NodeID) {
	for u := 0; u < len(off)-1; u++ {
		seg := pred[off[u]:off[u+1]]
		for i := 1; i < len(seg); i++ {
			for j := i; j > 0 && seg[j] < seg[j-1]; j-- {
				seg[j], seg[j-1] = seg[j-1], seg[j]
			}
		}
	}
}

// FromCSR assembles a Graph directly from prebuilt CSR arrays — the hook
// the fused analysis layer uses after running its own counting/fill passes.
// succOff/predOff must hold len(nodes)+1 offsets; successor segments must
// already be sorted ascending (they are whenever edges were generated by a
// DepScanner run); predecessor segments are sorted here.
func FromCSR(nodes []Node, numQubits int, succOff []int32, succ []NodeID, predOff []int32, pred []NodeID) *Graph {
	g := new(Graph)
	FromCSRInto(g, nodes, numQubits, succOff, succ, predOff, pred)
	return g
}

// FromCSRInto is FromCSR into a caller-owned Graph value — the arena path,
// which keeps one Graph header alive across analyses instead of allocating
// one per circuit. The same segment requirements as FromCSR apply.
func FromCSRInto(dst *Graph, nodes []Node, numQubits int, succOff []int32, succ []NodeID, predOff []int32, pred []NodeID) {
	sortPredSegments(predOff, pred)
	FromCSRSortedInto(dst, nodes, numQubits, succOff, succ, predOff, pred)
}

// FromCSRSortedInto is FromCSRInto for callers whose predecessor segments
// are already sorted (a decoded binary image); it only assembles the header.
func FromCSRSortedInto(dst *Graph, nodes []Node, numQubits int, succOff []int32, succ []NodeID, predOff []int32, pred []NodeID) {
	*dst = Graph{
		Nodes:     nodes,
		NumQubits: numQubits,
		succOff:   succOff,
		succ:      succ,
		predOff:   predOff,
		pred:      pred,
	}
}

// CSR exposes the graph's raw adjacency arrays — both offset tables and
// both edge arrays — for serialization (internal/qcbin writes them verbatim
// and reassembles with FromCSRSortedInto). The slices are live graph
// storage; treat them as read-only.
func (g *Graph) CSR() (succOff []int32, succ []NodeID, predOff []int32, pred []NodeID) {
	return g.succOff, g.succ, g.predOff, g.pred
}

// BuildReference is the pre-CSR two-phase builder (per-node append slices,
// then sort+dedup), retained as the independent oracle for the equivalence
// suite and as the baseline BenchmarkAnalyze measures the fused CSR pass
// against. Output is converted to the CSR representation so results compare
// directly with Build and the analysis layer.
func BuildReference(c *circuit.Circuit) (*Graph, error) {
	if len(c.Gates) > maxGates {
		return nil, GateLimitError(len(c.Gates), maxGates)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	nodes := NewNodes(c)
	n := len(nodes)
	succ := make([][]NodeID, n)
	pred := make([][]NodeID, n)
	addEdge := func(from, to NodeID) {
		if s := succ[from]; len(s) > 0 && s[len(s)-1] == to {
			return // consecutive duplicate (two-qubit op on same pair)
		}
		succ[from] = append(succ[from], to)
		pred[to] = append(pred[to], from)
	}
	last := make([]NodeID, c.NumQubits())
	for i, gate := range c.Gates {
		id := NodeID(i + 1)
		for _, q := range gate.Qubits() {
			addEdge(last[q], id)
			last[q] = id
		}
	}
	end := NodeID(n - 1)
	for q := 0; q < c.NumQubits(); q++ {
		addEdge(last[q], end)
	}
	for i := range succ {
		succ[i] = dedupSorted(succ[i])
		pred[i] = dedupSorted(pred[i])
	}
	return fromAdjacency(nodes, c.NumQubits(), succ, pred), nil
}

func dedupSorted(list []NodeID) []NodeID {
	if len(list) < 2 {
		return list
	}
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && list[j] < list[j-1]; j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
	out := list[:1]
	for _, v := range list[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func fromAdjacency(nodes []Node, numQubits int, succ, pred [][]NodeID) *Graph {
	flatten := func(adj [][]NodeID) ([]int32, []NodeID) {
		off := make([]int32, len(adj)+1)
		total := 0
		for i, list := range adj {
			off[i] = int32(total)
			total += len(list)
		}
		off[len(adj)] = int32(total)
		flat := make([]NodeID, 0, total)
		for _, list := range adj {
			flat = append(flat, list...)
		}
		return off, flat
	}
	g := &Graph{Nodes: nodes, NumQubits: numQubits}
	g.succOff, g.succ = flatten(succ)
	g.predOff, g.pred = flatten(pred)
	return g
}

// Weights assigns a latency to every node. Pseudo-nodes must have weight 0.
type Weights []float64

// NewWeights builds a weight vector with weightOf evaluated per operation
// node and 0 at the pseudo-nodes.
func (g *Graph) NewWeights(weightOf func(circuit.Gate) float64) Weights {
	return g.NewWeightsInto(nil, weightOf)
}

// NewWeightsInto is NewWeights into a reusable buffer: buf's backing array
// is reused when large enough. Every slot is overwritten (pseudo-nodes get
// an explicit 0), so a recycled buffer cannot leak stale weights.
func (g *Graph) NewWeightsInto(buf Weights, weightOf func(circuit.Gate) float64) Weights {
	n := len(g.Nodes)
	if cap(buf) < n {
		buf = make(Weights, n)
	}
	buf = buf[:n]
	for i, node := range g.Nodes {
		if node.IsPseudo() {
			buf[i] = 0
		} else {
			buf[i] = weightOf(node.Op)
		}
	}
	return buf
}

// Levels returns each node's ASAP level (start = 0) — the unweighted depth
// used for scheduling and reporting.
func (g *Graph) Levels() []int {
	level := make([]int, len(g.Nodes))
	for u := range level {
		lu := level[u] + 1
		for _, v := range g.Succ(NodeID(u)) {
			if lu > level[v] {
				level[v] = lu
			}
		}
	}
	return level
}

// CheckAcyclic verifies the topological-order invariant: every edge points
// from a lower node ID to a higher one.
func (g *Graph) CheckAcyclic() error {
	for u := range g.Nodes {
		for _, v := range g.Succ(NodeID(u)) {
			if int(v) <= u {
				return fmt.Errorf("qodg: back edge %d -> %d", u, v)
			}
		}
	}
	return nil
}

// Package analysis is the fused circuit-analysis front end of the
// estimator: one streaming pass over a circuit's gate list produces both
// graphs LEQA consumes — the quantum operation dependency graph (QODG,
// paper §2) and the interaction intensity graph (IIG, §3.1).
//
// The standalone builders (qodg.Build, iig.Build) each scan the gate list
// on their own; at the ~1M-operation scale the roadmap targets, that second
// scan plus the duplicated validation is pure waste, because both graphs
// derive from the same stream. Analyze validates once and drives one
// combined counting pass and one combined fill pass, assembling both CSR
// structures with a handful of flat allocations and no per-node maps or
// slices.
package analysis

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/csr"
	"repro/internal/iig"
	"repro/internal/qodg"
)

// Analysis bundles the circuit-dependent, fabric-independent artifacts of
// one circuit. Immutable after Analyze; share freely across goroutines and
// across every (fabric, options) configuration the circuit is estimated
// under — the cross-product sweep engine computes one Analysis per circuit
// and reuses it for every parameter set.
type Analysis struct {
	// Circuit is the analyzed netlist. It is nil for streamed analyses
	// (AnalyzeStream), whose whole point is never materializing the gate
	// list — consumers must use the metadata fields below, which both
	// construction paths fill identically.
	Circuit *circuit.Circuit
	// Name labels the analyzed circuit.
	Name string
	// Qubits is the register size.
	Qubits int
	// Operations is the gate count.
	Operations int
	// FT reports whether every gate belongs to the fault-tolerant set —
	// circuit.IsFT without the gate list.
	FT bool
	// QODG is the dependency graph (critical-path substrate, Eq. 1).
	QODG *qodg.Graph
	// IIG is the interaction graph (presence-zone substrate, Eq. 6–7).
	IIG *iig.Graph

	// lastWriter is the dependency scan's final per-qubit last-writer
	// state (0 = start anchor) — the seed an Appender resumes from.
	lastWriter []qodg.NodeID
}

// LastWriter exposes the dependency scan's final per-qubit last-writer
// state (0 = start anchor) for serialization. The slice is live analysis
// state; treat it as read-only.
func (a *Analysis) LastWriter() []qodg.NodeID { return a.lastWriter }

// Restore reassembles an Analysis from previously serialized parts — the
// decode path of internal/qcbin's binary Analysis image. The result is
// shaped exactly like an AnalyzeStream product: Circuit is nil, QODG nodes
// carry operand-free gates, and lastWriter seeds NewAppender, so estimates
// and appends behave identically to a freshly analyzed stream.
func Restore(name string, qubits, operations int, ft bool, g *qodg.Graph, ig *iig.Graph, lastWriter []qodg.NodeID) *Analysis {
	return &Analysis{
		Name:       name,
		Qubits:     qubits,
		Operations: operations,
		FT:         ft,
		QODG:       g,
		IIG:        ig,
		lastWriter: lastWriter,
	}
}

// maxGates bounds every builder in this package — the materialized pass,
// the streamed pass and the Appender — at qodg.MaxGates, so a node ID never
// wraps; a variable so tests can reach it without a 2^31-gate stream.
var maxGates = qodg.MaxGates

// Analyze builds both graphs in one streaming pass over the gate list. The
// circuit must be decomposed to one- and two-qubit gates: wider gates are
// rejected (the IIG is undefined on them), exactly as iig.Build does.
//
// Every call allocates independent, immutable graphs; the arena-backed
// (*Arena).Analyze runs the identical pass into recycled buffers for the
// steady-state worker loops.
func Analyze(c *circuit.Circuit) (*Analysis, error) {
	return analyzeSerial(c, nil)
}

// analyzeSerial is the shared fused pass. With a nil arena it allocates
// fresh immutable storage (the package-level Analyze contract); with an
// arena it reuses the arena's buffers and graph headers, producing a
// borrowed Analysis that stays valid until the arena's next use.
func analyzeSerial(c *circuit.Circuit, ar *Arena) (*Analysis, error) {
	if len(c.Gates) > maxGates {
		return nil, qodg.GateLimitError(len(c.Gates), maxGates)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	numQ := c.NumQubits()
	var (
		nodes                    []qodg.Node
		succDeg, predDeg, iigDeg []int32
		scan                     *qodg.DepScanner
	)
	if ar != nil {
		ar.nodes = qodg.NewNodesInto(ar.nodes, c)
		nodes = ar.nodes
		n := len(nodes)
		ar.succDeg = growClear(ar.succDeg, n+1)
		ar.predDeg = growClear(ar.predDeg, n+1)
		ar.iigDeg = growClear(ar.iigDeg, numQ+1)
		succDeg, predDeg, iigDeg = ar.succDeg, ar.predDeg, ar.iigDeg
		ar.scan.ResetFor(numQ)
		scan = &ar.scan
	} else {
		nodes = qodg.NewNodes(c)
		n := len(nodes)
		succDeg = make([]int32, n+1)
		predDeg = make([]int32, n+1)
		iigDeg = make([]int32, numQ+1)
		scan = qodg.NewDepScanner(numQ)
	}
	n := len(nodes)
	end := qodg.NodeID(n - 1)

	// Combined counting pass: QODG in/out degrees, IIG incidence counts and
	// FT-set membership from the same walk of the gate stream.
	count := func(from, to qodg.NodeID) {
		succDeg[from]++
		predDeg[to]++
	}
	ft := true
	for i, gate := range c.Gates {
		switch gate.Arity() {
		case 1:
			// One-qubit operations add no IIG edges.
		case 2:
			a, b := gate.QubitPair()
			iigDeg[a]++
			iigDeg[b]++
		default:
			return nil, fmt.Errorf("analysis: gate %d (%s) touches %d qubits; decompose first",
				i, gate.Type, gate.Arity())
		}
		ft = ft && gate.Type.IsFT()
		scan.VisitGate(qodg.NodeID(i+1), gate, count)
	}
	scan.VisitEnd(end, count)

	// Offsets + combined fill pass.
	var (
		succOff, predOff []int32
		succ, pred       []qodg.NodeID
		iigOff, iigNbr   []int32
	)
	if ar != nil {
		ar.succOff, ar.succ = csr.OffsetsInto(succDeg, ar.succOff, ar.succ)
		ar.predOff, ar.pred = csr.OffsetsInto(predDeg, ar.predOff, ar.pred)
		ar.iigOff, ar.iigNbr = csr.OffsetsInto(iigDeg, ar.iigOff, ar.iigNbr)
		succOff, succ = ar.succOff, ar.succ
		predOff, pred = ar.predOff, ar.pred
		iigOff, iigNbr = ar.iigOff, ar.iigNbr
	} else {
		succOff, succ = csr.Offsets[qodg.NodeID](succDeg)
		predOff, pred = csr.Offsets[qodg.NodeID](predDeg)
		iigOff, iigNbr = csr.Offsets[int32](iigDeg)
	}
	fill := func(from, to qodg.NodeID) {
		succ[succDeg[from]] = to
		succDeg[from]++
		pred[predDeg[to]] = from
		predDeg[to]++
	}
	scan.Reset()
	for i, gate := range c.Gates {
		if gate.Arity() == 2 {
			a, b := gate.QubitPair()
			iigNbr[iigDeg[a]] = int32(b)
			iigDeg[a]++
			iigNbr[iigDeg[b]] = int32(a)
			iigDeg[b]++
		}
		scan.VisitGate(qodg.NodeID(i+1), gate, fill)
	}
	scan.VisitEnd(end, fill)

	if ar != nil {
		qodg.FromCSRInto(&ar.qg, nodes, numQ, succOff, succ, predOff, pred)
		ar.lastWriter = append(ar.lastWriter[:0], scan.Last()...)
		ar.a = Analysis{
			Circuit:    c,
			Name:       c.Name,
			Qubits:     numQ,
			Operations: len(c.Gates),
			FT:         ft,
			QODG:       &ar.qg,
			IIG:        iig.FromIncidenceScratch(numQ, iigOff, iigNbr, &ar.igs),
			lastWriter: ar.lastWriter,
		}
		return &ar.a, nil
	}
	return &Analysis{
		Circuit:    c,
		Name:       c.Name,
		Qubits:     numQ,
		Operations: len(c.Gates),
		FT:         ft,
		QODG:       qodg.FromCSR(nodes, numQ, succOff, succ, predOff, pred),
		IIG:        iig.FromIncidence(numQ, iigOff, iigNbr),
		lastWriter: append([]qodg.NodeID(nil), scan.Last()...),
	}, nil
}

package analysis

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/csr"
	"repro/internal/iig"
	"repro/internal/qodg"
)

// GateStream is the reader-driven gate source AnalyzeStream consumes: a
// re-windable stream of validated gates, typically an ingest.Scanner over a
// .qc file or pipe. The stream must replay identically across passes (the
// ingest scanner guarantees this via seek or an on-disk spool); NumQubits
// may grow while a pass runs (auto-declared qubits) and is final once a
// pass has consumed the whole stream.
type GateStream interface {
	// Scan advances to the next gate; false at end of stream or error.
	Scan() bool
	// Gate returns the current gate. It may alias scanner-internal storage
	// valid only until the next Scan — AnalyzeStream never retains it.
	Gate() circuit.Gate
	// Err reports the terminal failure, nil at clean end of stream.
	Err() error
	// Rewind restarts the stream for another pass.
	Rewind() error
	// NumQubits reports the register size seen so far.
	NumQubits() int
	// Name labels the circuit.
	Name() string
}

// CircuitStream adapts a materialized circuit into a GateStream, letting
// mixed batches (some circuits in memory, some on disk) run through one
// streaming engine, and letting the equivalence suite feed the exact same
// gates down both paths.
type CircuitStream struct {
	c *circuit.Circuit
	i int
}

// NewCircuitStream returns a stream over c's gate list.
func NewCircuitStream(c *circuit.Circuit) *CircuitStream {
	return &CircuitStream{c: c, i: -1}
}

func (s *CircuitStream) Scan() bool {
	if s.i+1 >= len(s.c.Gates) {
		return false
	}
	s.i++
	return true
}

func (s *CircuitStream) Gate() circuit.Gate { return s.c.Gates[s.i] }
func (s *CircuitStream) Err() error         { return nil }
func (s *CircuitStream) Rewind() error      { s.i = -1; return nil }
func (s *CircuitStream) NumQubits() int     { return s.c.NumQubits() }
func (s *CircuitStream) Name() string       { return s.c.Name }

// Register exposes the backing circuit's qubit register — the same optional
// capability ingest.Scanner offers, letting encoders recover real qubit
// names from a materialized stream.
func (s *CircuitStream) Register() *circuit.Circuit { return s.c }

// PrevalidatedStream is an optional GateStream capability: a stream whose
// Scan contract guarantees that every yielded gate already passes
// circuit.Gate.Validate against the stream's register. The ingest text
// scanner (its line parser validates each statement as it is parsed) and
// the qcbin binary decoder (decode-time opcode, shape, range and
// distinctness checks) both qualify, so the analysis passes skip the
// redundant per-gate re-validation — a meaningful share of the build on
// pre-parsed containers. The two-qubit arity cap and the replay gate-count
// check are still enforced for every stream, and an out-of-range operand
// from a stream that lies about this trips a bounds panic in the degree
// arrays rather than corrupting rows silently.
type PrevalidatedStream interface {
	// PrevalidatedGates reports whether every gate the stream yields is
	// already validated against the stream's register.
	PrevalidatedGates() bool
}

// gatesPrevalidated reports whether src opts out of per-gate re-validation.
func gatesPrevalidated(src GateStream) bool {
	p, ok := src.(PrevalidatedStream)
	return ok && p.PrevalidatedGates()
}

// AnalyzeStream is analysis.Analyze over a gate stream: the identical
// fused counting and CSR fill passes, driven by two passes over src instead
// of two loops over a materialized []Gate. The resulting graphs are
// topology-identical to Analyze on the materialized circuit — same node
// IDs, same CSR contents — so estimates derived from them are bitwise
// identical; the only difference is that QODG nodes carry operand-free
// gates (Type only, no Controls/Targets slices) and Analysis.Circuit is
// nil. Peak memory is the analysis product itself (nodes + CSR adjacency)
// plus one ingest chunk: the O(gates) heap of per-gate operand slices a
// materialized []Gate drags along is never allocated.
func AnalyzeStream(src GateStream) (*Analysis, error) {
	return analyzeStream(src, nil)
}

// AnalyzeStream is the arena-backed streamed analysis: same contract as
// AnalyzeStream, every buffer drawn from ar. The returned Analysis is
// borrowed until ar's next use, exactly like (*Arena).Analyze.
func (ar *Arena) AnalyzeStream(src GateStream) (*Analysis, error) {
	return analyzeStream(src, ar)
}

// analyzeStream runs the two-pass streamed analysis. With a nil arena it
// allocates fresh immutable storage; otherwise every buffer is recycled
// arena state. The pass structure mirrors analyze line for line: counting
// pass (degrees, IIG incidence counts, FT tracking, validation), offsets,
// fill pass (nodes, CSR adjacency, IIG incidence), assembly.
func analyzeStream(src GateStream, ar *Arena) (*Analysis, error) {
	var (
		succDeg, predDeg, iigDeg []int32
		scan                     *qodg.DepScanner
	)
	if ar != nil {
		succDeg, predDeg, iigDeg = ar.succDeg[:0], ar.predDeg[:0], ar.iigDeg[:0]
		ar.scan.ResetFor(src.NumQubits())
		scan = &ar.scan
	} else {
		scan = qodg.NewDepScanner(src.NumQubits())
	}
	count := func(from, to qodg.NodeID) {
		succDeg[from]++
		predDeg[to]++
	}

	// Counting pass. Degree arrays grow with the stream: when gate i
	// arrives it occupies node i+1 and every edge it emits ends there, so
	// extending the arrays one slot per gate keeps all emitted indices in
	// range without knowing the gate count up front.
	ft := true
	nGates := 0
	trusted := gatesPrevalidated(src)
	for src.Scan() {
		if nGates >= maxGates {
			return nil, qodg.GateLimitError(nGates+1, maxGates)
		}
		g := src.Gate()
		id := qodg.NodeID(nGates + 1)
		succDeg = growKeep(succDeg, nGates+2)
		predDeg = growKeep(predDeg, nGates+2)
		q := src.NumQubits()
		scan.GrowTo(q)
		if err := validateStreamGate(src, nGates, g, q, trusted); err != nil {
			return nil, err
		}
		if g.Arity() == 2 {
			a, b := g.QubitPair()
			iigDeg = growKeep(iigDeg, q)
			iigDeg[a]++
			iigDeg[b]++
		}
		ft = ft && g.Type.IsFT()
		scan.VisitGate(id, g, count)
		nGates++
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	numQ := src.NumQubits()
	n := nGates + 2
	end := qodg.NodeID(n - 1)
	succDeg = growKeep(succDeg, n+1)
	predDeg = growKeep(predDeg, n+1)
	iigDeg = growKeep(iigDeg, numQ+1)
	scan.GrowTo(numQ)
	scan.VisitEnd(end, count)

	// Offsets + node array, now that the stream's true size is known.
	var (
		succOff, predOff []int32
		succ, pred       []qodg.NodeID
		iigOff, iigNbr   []int32
		nodes            []qodg.Node
	)
	if ar != nil {
		ar.succDeg, ar.predDeg, ar.iigDeg = succDeg, predDeg, iigDeg
		ar.succOff, ar.succ = csr.OffsetsInto(succDeg, ar.succOff, ar.succ)
		ar.predOff, ar.pred = csr.OffsetsInto(predDeg, ar.predOff, ar.pred)
		ar.iigOff, ar.iigNbr = csr.OffsetsInto(iigDeg, ar.iigOff, ar.iigNbr)
		succOff, succ = ar.succOff, ar.succ
		predOff, pred = ar.predOff, ar.pred
		iigOff, iigNbr = ar.iigOff, ar.iigNbr
		ar.nodes = csr.Grow(ar.nodes, n)
		nodes = ar.nodes
	} else {
		succOff, succ = csr.Offsets[qodg.NodeID](succDeg)
		predOff, pred = csr.Offsets[qodg.NodeID](predDeg)
		iigOff, iigNbr = csr.Offsets[int32](iigDeg)
		nodes = make([]qodg.Node, n)
	}
	nodes[0] = qodg.Node{ID: 0, GateIndex: -1}
	nodes[n-1] = qodg.Node{ID: end, GateIndex: -1}

	// Fill pass over the replayed stream.
	if err := src.Rewind(); err != nil {
		return nil, err
	}
	scan.ResetFor(numQ)
	fill := func(from, to qodg.NodeID) {
		succ[succDeg[from]] = to
		succDeg[from]++
		pred[predDeg[to]] = from
		predDeg[to]++
	}
	filled := 0
	for src.Scan() {
		g := src.Gate()
		if filled >= nGates {
			return nil, replayError(src, nGates)
		}
		if err := validateStreamGate(src, filled, g, numQ, trusted); err != nil {
			return nil, err
		}
		id := qodg.NodeID(filled + 1)
		// Operand-free node: the estimate phase reads only the gate type
		// (weights, critical-path counts), so the Controls/Targets heap a
		// materialized gate list retains is simply never built.
		nodes[filled+1] = qodg.Node{ID: id, Op: circuit.Gate{Type: g.Type}, GateIndex: filled}
		if g.Arity() == 2 {
			a, b := g.QubitPair()
			iigNbr[iigDeg[a]] = int32(b)
			iigDeg[a]++
			iigNbr[iigDeg[b]] = int32(a)
			iigDeg[b]++
		}
		scan.VisitGate(id, g, fill)
		filled++
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	if filled != nGates || src.NumQubits() != numQ {
		return nil, replayError(src, nGates)
	}
	scan.VisitEnd(end, fill)

	if ar != nil {
		qodg.FromCSRInto(&ar.qg, nodes, numQ, succOff, succ, predOff, pred)
		ar.lastWriter = append(ar.lastWriter[:0], scan.Last()...)
		ar.a = Analysis{
			Name:       src.Name(),
			Qubits:     numQ,
			Operations: nGates,
			FT:         ft,
			QODG:       &ar.qg,
			IIG:        iig.FromIncidenceScratch(numQ, iigOff, iigNbr, &ar.igs),
			lastWriter: ar.lastWriter,
		}
		return &ar.a, nil
	}
	return &Analysis{
		Name:       src.Name(),
		Qubits:     numQ,
		Operations: nGates,
		FT:         ft,
		QODG:       qodg.FromCSR(nodes, numQ, succOff, succ, predOff, pred),
		IIG:        iig.FromIncidence(numQ, iigOff, iigNbr),
		lastWriter: append([]qodg.NodeID(nil), scan.Last()...),
	}, nil
}

// validateStreamGate applies the per-gate checks the materialized path gets
// from Circuit.Validate plus the analysis-layer arity constraint, with the
// same error shapes. It also shields the CSR cursors from a misbehaving
// stream: an out-of-range operand would otherwise corrupt rows silently.
// Streams that advertise PrevalidatedStream skip the Gate.Validate half —
// their decoders already ran the identical checks per gate — but keep the
// arity cap, which is an analysis-layer constraint, not a gate-validity one.
func validateStreamGate(src GateStream, i int, g circuit.Gate, numQubits int, trusted bool) error {
	if !trusted {
		if err := g.Validate(numQubits); err != nil {
			return fmt.Errorf("circuit %q: gate %d: %w", src.Name(), i, err)
		}
	}
	if g.Arity() > 2 {
		return fmt.Errorf("analysis: gate %d (%s) touches %d qubits; decompose first",
			i, g.Type, g.Arity())
	}
	return nil
}

// replayError reports a stream whose second pass disagreed with its first —
// a broken GateStream implementation, never a property of the input.
func replayError(src GateStream, nGates int) error {
	return fmt.Errorf("analysis: stream %q changed between passes (first pass: %d gates, %d qubits)",
		src.Name(), nGates, src.NumQubits())
}

// growKeep extends buf to length n, preserving existing contents and
// zeroing the new tail — the streaming counterpart of growClear, whose
// whole-buffer clear would erase counts accumulated mid-pass.
func growKeep(buf []int32, n int) []int32 {
	if n <= len(buf) {
		return buf
	}
	old := len(buf)
	if n <= cap(buf) {
		buf = buf[:n]
	} else {
		grown := make([]int32, n, max(2*cap(buf), n))
		copy(grown, buf[:old])
		buf = grown
	}
	clear(buf[old:])
	return buf
}

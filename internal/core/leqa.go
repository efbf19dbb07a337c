// Package core implements LEQA itself — Algorithm 1 of the paper: a fast
// latency estimator for a quantum algorithm (an FT gate netlist) mapped to a
// tiled quantum architecture, built on the presence-zone coverage model
// (Eq. 2–7), the M/M/1 channel congestion model (Eq. 8–11) and the TSP-bound
// travel model (Eq. 12–16), feeding the critical-path latency of Eq. 1.
package core

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/fabric"
	"repro/internal/iig"
	"repro/internal/ingest"
	"repro/internal/qodg"
	"repro/internal/tsp"
	"repro/internal/zonemodel"
)

// DefaultTruncation is the number of E[S_q] terms evaluated (the paper
// computes "only the first 20 terms ... in practice").
const DefaultTruncation = 20

// Options tunes the estimator; the zero value gives the paper's behavior.
type Options struct {
	// Truncation overrides the E[S_q] term limit; 0 means
	// DefaultTruncation, negative means no truncation (all Q terms) —
	// used by the truncation ablation.
	Truncation int
	// DisableCongestion replaces Eq. 8 with d_q = d_uncong everywhere,
	// for the congestion-model ablation.
	DisableCongestion bool
}

func (o Options) truncation(q int) int {
	switch {
	case o.Truncation < 0:
		return q
	case o.Truncation == 0:
		if q < DefaultTruncation {
			return q
		}
		return DefaultTruncation
	default:
		if o.Truncation > q {
			return q
		}
		return o.Truncation
	}
}

// Result carries the estimate plus every intermediate the paper defines, so
// experiments and reports can inspect the model.
type Result struct {
	// EstimatedLatency is D of Eq. 1, in µs.
	EstimatedLatency float64
	// LCNOTAvg is L_CNOT^avg (Eq. 2): average CNOT routing latency, µs.
	LCNOTAvg float64
	// LOneQubitAvg is L_g^avg = 2·T_move, µs.
	LOneQubitAvg float64
	// DUncong is the congestion-free average routing latency (Eq. 12), µs.
	DUncong float64
	// AvgZoneArea is B (Eq. 7), in ULB units.
	AvgZoneArea float64
	// ZoneSide is ⌈√B⌉ clamped to the fabric, in ULBs.
	ZoneSide int
	// ESq[q] is E[S_q] for q = 1..len(ESq)-1 (index 0 unused), in ULBs.
	ESq []float64
	// Dq[q] is d_q (Eq. 8) for q = 1..len(Dq)-1 (index 0 unused), µs.
	Dq []float64
	// CriticalPath is the re-weighted longest path of the QODG.
	CriticalPath qodg.CriticalPath
	// CriticalCNOTs and CriticalOneQubit are N_CNOT^critical and
	// Σ_g N_g^critical.
	CriticalCNOTs    int
	CriticalOneQubit int
	// Qubits and Operations echo the workload size (Table 3 columns).
	Qubits     int
	Operations int
}

// Estimator binds physical parameters and options; safe for reuse across
// circuits and for concurrent use.
type Estimator struct {
	Params  fabric.Params
	Options Options
}

// New constructs an Estimator after validating the parameters.
func New(p fabric.Params, opt Options) (*Estimator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{Params: p, Options: opt}, nil
}

// NonFTError reports a circuit (or gate stream) containing gates outside
// the fault-tolerant set. Its message matches the historical precondition
// failure; callers that want to react (the service's decompose fallback)
// detect it with errors.As.
type NonFTError struct {
	// Circuit names the offending netlist.
	Circuit string
	// Gate is the index of the first non-FT gate when known (streaming
	// detection), -1 otherwise.
	Gate int
	// Type is the offending gate type when known (circuit.Invalid
	// otherwise).
	Type circuit.GateType
}

func (e *NonFTError) Error() string {
	return fmt.Sprintf("leqa: circuit %q contains non-FT gates; run decompose.ToFT first", e.Circuit)
}

func ftErr(name string) error { return &NonFTError{Circuit: name, Gate: -1} }

// Estimate runs Algorithm 1 on an FT circuit.
func (e *Estimator) Estimate(c *circuit.Circuit) (*Result, error) {
	if !c.IsFT() {
		return nil, ftErr(c.Name)
	}
	// Line 1: one fused pass builds the IIG and the QODG used at line 19.
	a, err := analysis.Analyze(c)
	if err != nil {
		return nil, err
	}
	return e.estimate(a.Qubits, a.Operations, a.QODG, a.IIG, nil)
}

// EstimateStream runs Algorithm 1 on a streamed netlist: the fused analysis
// passes consume the gate stream directly (analysis.AnalyzeStream), so the
// circuit's gate list is never materialized and peak memory is the analysis
// product plus one ingest chunk. The FT precondition is enforced gate by
// gate as the stream flows; results are bitwise identical to Estimate on
// the materialized circuit.
func (e *Estimator) EstimateStream(src analysis.GateStream) (*Result, error) {
	return e.EstimateStreamArena(src, nil)
}

// EstimateStreamArena is EstimateStream with every analysis and estimate
// buffer drawn from ar — the steady-state ingestion path of a pooled
// worker. A nil arena allocates fresh storage.
func (e *Estimator) EstimateStreamArena(src analysis.GateStream, ar *analysis.Arena) (*Result, error) {
	a, err := e.AnalyzeStreamFT(src, ar)
	if err != nil {
		return nil, err
	}
	return e.estimate(a.Qubits, a.Operations, a.QODG, a.IIG, ar)
}

// AnalyzeStreamFT is the analysis half of EstimateStreamArena on its own:
// the stream runs behind the FT-set guard into the fused streamed
// analysis. Callers that need to time or schedule the analysis and
// estimate phases separately — the service's phase metrics — pair it with
// EstimateAnalysisArena; the composition is exactly EstimateStreamArena.
func (e *Estimator) AnalyzeStreamFT(src analysis.GateStream, ar *analysis.Arena) (*analysis.Analysis, error) {
	guard := &ftGuard{src: src}
	if ar != nil {
		return ar.AnalyzeStream(guard)
	}
	return analysis.AnalyzeStream(guard)
}

// EstimateReader runs Algorithm 1 on a .qc netlist read from r, streamed
// through internal/ingest under opt (chunk size, spool placement and cap).
// name labels the circuit in results and diagnostics.
func (e *Estimator) EstimateReader(r io.Reader, name string, opt ingest.Options) (*Result, error) {
	sc := ingest.NewScanner(r, name, opt)
	defer sc.Close()
	return e.EstimateStream(sc)
}

// ftGuard enforces the FT-gate-set precondition on a flowing stream: the
// first non-FT gate stops the scan with a NonFTError, before the analysis
// layer ever sees the gate — the same failure priority as the batch path's
// up-front IsFT check.
type ftGuard struct {
	src  analysis.GateStream
	idx  int
	err  error
	gate circuit.Gate
}

func (f *ftGuard) Scan() bool {
	if f.err != nil {
		return false
	}
	if !f.src.Scan() {
		return false
	}
	f.gate = f.src.Gate()
	if !f.gate.Type.IsFT() {
		f.err = &NonFTError{Circuit: f.src.Name(), Gate: f.idx, Type: f.gate.Type}
		return false
	}
	f.idx++
	return true
}

func (f *ftGuard) Gate() circuit.Gate { return f.gate }

func (f *ftGuard) Err() error {
	if f.err != nil {
		return f.err
	}
	return f.src.Err()
}

func (f *ftGuard) Rewind() error {
	if f.err != nil {
		return f.err
	}
	f.idx = 0
	return f.src.Rewind()
}

func (f *ftGuard) NumQubits() int { return f.src.NumQubits() }
func (f *ftGuard) Name() string   { return f.src.Name() }

// EstimateArena is Estimate through a reusable arena: the fused analysis
// pass, the weight vector and the critical-path sweep all run in ar's
// recycled buffers, so a warm worker estimates with near-zero heap
// allocation. The Result is independent of the arena (nothing it holds
// aliases arena memory) and is bitwise identical to Estimate's.
func (e *Estimator) EstimateArena(c *circuit.Circuit, ar *analysis.Arena) (*Result, error) {
	if !c.IsFT() {
		return nil, ftErr(c.Name)
	}
	a, err := ar.Analyze(c)
	if err != nil {
		return nil, err
	}
	return e.estimate(a.Qubits, a.Operations, a.QODG, a.IIG, ar)
}

// EstimateAnalysis runs Algorithm 1 on a previously analyzed circuit — the
// path batch sweeps use to amortize one Analyze across many parameter sets.
func (e *Estimator) EstimateAnalysis(a *analysis.Analysis) (*Result, error) {
	return e.EstimateAnalysisArena(a, nil)
}

// EstimateAnalysisArena is EstimateAnalysis with the estimate-phase scratch
// (weights, longest-path state) drawn from ar. The analysis itself may be a
// shared immutable one or arena-borrowed; only its graphs and metadata are
// read, so streamed analyses (Circuit == nil) work identically.
func (e *Estimator) EstimateAnalysisArena(a *analysis.Analysis, ar *analysis.Arena) (*Result, error) {
	if !a.FT {
		return nil, ftErr(a.Name)
	}
	return e.estimate(a.Qubits, a.Operations, a.QODG, a.IIG, ar)
}

// EstimateGraphs is Estimate for callers that already built the graphs.
func (e *Estimator) EstimateGraphs(c *circuit.Circuit, g *qodg.Graph, ig *iig.Graph) (*Result, error) {
	if !c.IsFT() {
		return nil, ftErr(c.Name)
	}
	return e.estimate(c.NumQubits(), c.NumGates(), g, ig, nil)
}

// estimate runs Algorithm 1 over prebuilt graphs; qubits and operations
// echo the workload size into the Result (the gate list itself is not
// needed — streamed analyses never have one). ar, when non-nil, donates
// the weight vector and longest-path scratch; the math is identical either
// way, so arena and fresh runs produce bitwise-equal Results.
func (e *Estimator) estimate(qubits, operations int, g *qodg.Graph, ig *iig.Graph, ar *analysis.Arena) (*Result, error) {
	res, err := e.scalarPhase(qubits, operations, ig)
	if err != nil {
		return nil, err
	}
	p := e.Params

	// Lines 19–20: re-weight the QODG with per-op routing latencies and
	// take the critical path (Eq. 1).
	var werr error
	weightOf := func(gt circuit.Gate) float64 {
		if gt.Type == circuit.CNOT {
			return p.DCNOT + res.LCNOTAvg
		}
		d, err := p.DelayOf(gt.Type)
		if err != nil && werr == nil {
			werr = err
		}
		return d + res.LOneQubitAvg
	}
	var weights qodg.Weights
	var scratch *qodg.PathScratch
	if ar != nil {
		weights = ar.WeightsFor(g, weightOf)
		scratch = ar.Path()
	} else {
		weights = g.NewWeights(weightOf)
	}
	if werr != nil {
		return nil, werr
	}
	cp, err := g.LongestPathInto(weights, scratch)
	if err != nil {
		return nil, err
	}
	finishPath(res, cp)
	return res, nil
}

// scalarPhase runs lines 2–18 of Algorithm 1 — everything before the QODG
// re-weighting: the zone coverage average (Eq. 6–7), the congestion-free
// routing latency (Eq. 12, 15–16), and the memoized zone-model terms
// (Eq. 2–5, 8–11). The batched path runs it once per parameter column; the
// IIG terms that depend only on the circuit repeat the identical float
// computation per column, so single- and multi-column Results stay bitwise
// equal.
func (e *Estimator) scalarPhase(qubits, operations int, ig *iig.Graph) (*Result, error) {
	p := e.Params
	res := &Result{
		LOneQubitAvg: p.OneQubitRouting(),
		Qubits:       qubits,
		Operations:   operations,
	}

	// Lines 2–3: B_i = M_i + 1 (Eq. 6), B = weighted average (Eq. 7).
	res.AvgZoneArea = ig.AverageZoneArea()

	// Lines 4–8: E[l_ham,i] (Eq. 15), d_uncong,i (Eq. 16), d_uncong (Eq. 12).
	res.DUncong = ig.WeightedAverage(func(i int) float64 {
		m := ig.Degree(i)
		if m == 0 {
			return 0
		}
		lham := tsp.ExpectedHamiltonianPath(m, ig.ZoneArea(i))
		return lham / (p.QubitSpeed * float64(m))
	})

	if ig.TotalWeight() > 0 && res.DUncong > 0 {
		if err := e.routingLatency(res, ig); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// finishPath folds a recovered critical path into the Result — lines 19–20's
// outputs: D (Eq. 1) plus the per-type critical counts.
func finishPath(res *Result, cp qodg.CriticalPath) {
	res.CriticalPath = cp
	res.EstimatedLatency = cp.Length
	for t, n := range cp.CountByType {
		if t == circuit.CNOT {
			res.CriticalCNOTs += n
		} else {
			res.CriticalOneQubit += n
		}
	}
}

// routingLatency fills ZoneSide, ESq, Dq and LCNOTAvg (lines 9–18). The
// heavy lifting — coverage probabilities, E[S_q], d_q, L_CNOT^avg — lives
// in the circuit-independent zonemodel layer and is memoized there, so two
// circuits with the same (fabric, zone side, Q, d_uncong) configuration
// share one model computation.
func (e *Estimator) routingLatency(res *Result, ig *iig.Graph) error {
	p := e.Params
	key := zonemodel.NewKey(p.Grid, res.AvgZoneArea, ig.Q,
		e.Options.truncation(ig.Q), p.ChannelCapacity, res.DUncong,
		e.Options.DisableCongestion)
	res.ZoneSide = key.ZoneSide
	m, err := zonemodel.Shared.Get(key)
	if err != nil {
		return err
	}
	res.ESq = m.ESq()
	res.Dq = m.Dq()
	res.LCNOTAvg = m.LCNOT
	return nil
}

// CoverageProbability exposes Eq. 5 for a single ULB — used by the Fig. 3/4
// regenerations and tests. x and y are 1-based.
func CoverageProbability(grid fabric.Grid, zoneSide, x, y int) float64 {
	return zonemodel.CoverageProbability(grid, zoneSide, x, y)
}

// ExpectedSurfaceExact computes E[S_q] without truncation for one q —
// used by tests validating the Eq. 3 constraint Σ_{q=0..Q} E[S_q] = A.
func ExpectedSurfaceExact(grid fabric.Grid, zoneSide, qubits, q int) float64 {
	return zonemodel.ExpectedSurfaceExact(grid, zoneSide, qubits, q)
}

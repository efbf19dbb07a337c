package leqa

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/core"
)

// SweepResult is one circuit's outcome inside a batch run. Results keep the
// input order: result i always describes circuit i, whichever worker ran it.
type SweepResult struct {
	// Index is the circuit's position in the input slice.
	Index int
	// Name echoes the circuit (or benchmark) name.
	Name string
	// Result is the estimate; nil when Err is set.
	Result *EstimateResult
	// Err is the per-circuit failure (non-FT gates, bad generator name,
	// cancellation), leaving the other circuits' results intact.
	Err error
}

// Runner is the concurrent batch-estimation engine: a fixed worker pool
// that analyzes each circuit (fused QODG+IIG build) and runs LEQA on the
// result, sharing the estimator (and through it the memoized zone model)
// across workers. Safe for concurrent use; construct once and reuse across
// sweeps.
//
// Workers draw their per-estimate scratch state (graph-build buffers,
// weight vector, longest-path arrays) from a pool of analysis.Arenas, so a
// warm Runner — the leqad replica serving steady traffic — performs
// near-zero heap allocation per estimate. Results never alias arena memory.
type Runner struct {
	est     *core.Estimator
	opt     EstimateOptions
	workers int
	arenas  sync.Pool // of *analysis.Arena
	store   *AnalysisStore
	memo    *ResultMemo // optional (digest, params) result memo; see memo.go
	memoOpt string      // options prefix baked into every memo key
}

// arena checks a warm arena out of the pool (or makes a fresh one).
func (r *Runner) arena() *analysis.Arena {
	if ar, ok := r.arenas.Get().(*analysis.Arena); ok {
		return ar
	}
	return analysis.NewArena()
}

// release returns an arena to the pool once every borrow of its current
// contents has ended.
func (r *Runner) release(ar *analysis.Arena) { r.arenas.Put(ar) }

// NewRunner validates the parameters and builds a Runner. workers ≤ 0
// selects GOMAXPROCS.
func NewRunner(p Params, opt EstimateOptions, workers int) (*Runner, error) {
	est, err := core.New(p, opt)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{est: est, opt: opt, workers: workers}, nil
}

// Workers reports the pool size.
func (r *Runner) Workers() int { return r.workers }

// Run estimates every circuit, fanning the per-circuit work (graph builds +
// Algorithm 1) across the pool. The returned slice has one entry per input
// circuit in input order. The error is non-nil only when ctx was cancelled;
// per-circuit failures land in SweepResult.Err so one bad netlist cannot
// sink a fleet of good ones.
func (r *Runner) Run(ctx context.Context, circuits []*Circuit) ([]SweepResult, error) {
	return r.run(ctx, len(circuits), func(i int) SweepResult {
		c := circuits[i]
		sr := SweepResult{Index: i, Name: c.Name}
		sr.Result, sr.Err = r.estimateOne(ctx, c)
		return sr
	}, func(i int) string { return circuits[i].Name })
}

// RunNamed is Run for generator specs (gf2^16mult, hwb50ps, ...): each
// worker generates the named benchmark, lowers it to the FT gate set and
// estimates it, so even circuit synthesis is parallelized.
func (r *Runner) RunNamed(ctx context.Context, names []string) ([]SweepResult, error) {
	return r.run(ctx, len(names), func(i int) SweepResult {
		return r.generateAndEstimate(ctx, i, names[i])
	}, func(i int) string { return names[i] })
}

// generateAndEstimate synthesizes one named benchmark, lowers it to the FT
// gate set and estimates it — the per-item work RunNamed and
// RunNamedStream share.
func (r *Runner) generateAndEstimate(ctx context.Context, i int, name string) SweepResult {
	sr := SweepResult{Index: i, Name: name}
	t := time.Now()
	c, err := benchgen.GenerateFT(name)
	observePhaseDetail(ctx, PhaseIngest, t, func() string { return "generate=" + name })
	if err != nil {
		sr.Err = fmt.Errorf("leqa: generating %q: %w", name, err)
		return sr
	}
	sr.Result, sr.Err = r.estimateOne(ctx, c)
	return sr
}

// ftError is the package's one copy of the FT-gate-set precondition every
// estimation path checks before analyzing a circuit.
func ftError(c *Circuit) error {
	if c.IsFT() {
		return nil
	}
	return fmt.Errorf("leqa: circuit %q contains non-FT gates; run Decompose first", c.Name)
}

// estimateOne analyzes the circuit (one fused graph pass) and runs the
// estimator on the result, with both phases working out of a pooled arena.
func (r *Runner) estimateOne(ctx context.Context, c *Circuit) (*EstimateResult, error) {
	if err := ftError(c); err != nil {
		return nil, err
	}
	ar := r.arena()
	defer r.release(ar)
	t := time.Now()
	a, err := ar.Analyze(c)
	observePhaseDetail(ctx, PhaseAnalyze, t, func() string {
		return "gates=" + itoa(c.NumGates())
	})
	if err != nil {
		return nil, err
	}
	t = time.Now()
	res, err := r.est.EstimateAnalysisArena(a, ar)
	observePhase(ctx, PhaseEstimate, t)
	return res, err
}

// run fans the per-item work across the shared pool primitive and collects
// the ordered stream. Every slot is dispatched even after cancellation —
// workers fast-path cancelled items into an error result — so the output
// always accounts for every input, and collected results are bitwise
// identical to what RunStream/RunNamedStream deliver.
func (r *Runner) run(ctx context.Context, n int, work func(i int) SweepResult, name func(i int) string) ([]SweepResult, error) {
	results := make([]SweepResult, 0, n)
	err := r.runStream(ctx, n, work, name, func(sr SweepResult) error {
		results = append(results, sr)
		return nil
	})
	return results, err
}

// Sweep estimates every circuit concurrently with default options and a
// GOMAXPROCS-sized pool — the batch counterpart of Estimate.
func Sweep(ctx context.Context, circuits []*Circuit, p Params) ([]SweepResult, error) {
	r, err := NewRunner(p, EstimateOptions{}, 0)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, circuits)
}

// SweepNamed estimates every named built-in benchmark concurrently with
// default options — generation, FT lowering, graph builds and estimation
// all run inside the pool.
func SweepNamed(ctx context.Context, names []string, p Params) ([]SweepResult, error) {
	r, err := NewRunner(p, EstimateOptions{}, 0)
	if err != nil {
		return nil, err
	}
	return r.RunNamed(ctx, names)
}

package leqa

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
)

// Runner is the concurrent batch-estimation engine: a fixed worker pool
// that analyzes each source (fused QODG+IIG build) and runs LEQA on the
// result under every parameter column, sharing the memoized zone model
// across workers. Its estimation surface is SweepGridSourcesStream, the
// collecting SweepGridSources, and SweepGrid for in-memory circuits. Safe
// for concurrent use; construct once and reuse across sweeps.
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

// ftError is the package's one copy of the FT-gate-set precondition every
// estimation path checks before analyzing a circuit.
func ftError(c *Circuit) error {
	if c.IsFT() {
		return nil
	}
	return fmt.Errorf("leqa: circuit %q contains non-FT gates; run Decompose first", c.Name)
}

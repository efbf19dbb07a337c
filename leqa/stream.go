package leqa

import (
	"context"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/pool"
)

// This file holds the streaming counterparts of Run/RunNamed/SweepGrid:
// identical computation fanned across the same pool, but every finished row
// is handed to a caller-supplied emit callback in strict input order as
// soon as the contiguous prefix through that row has completed — row 0 is
// delivered while later rows are still computing. The batch engines collect
// these streams, so streamed and collected results are bitwise identical.
//
// emit runs on the caller's goroutine (safe for http.ResponseWriter and
// other single-goroutine sinks). A non-nil emit error — a disconnected
// network client, typically — stops the feed early and is returned; fn
// work not yet started is never run.

// SweepGridStream estimates the circuits × paramSets cross product exactly
// like SweepGrid — cells in circuit-major input order — but delivers every
// GridCell to emit as soon as its row completes instead of collecting the
// batch. Each worker owns one whole row (one circuit × every parameter
// column): it analyzes the circuit once in its own arena and runs the
// estimate phase as a single batched core.EstimateAnalysisBatch call, so the
// QODG adjacency streams through the cache once for all columns.
// Cancellation is observed per row: cells that never ran carry ctx's error,
// and the function returns ctx.Err() after the last delivery. A
// parameter-set validation failure is returned before any work starts.
func (r *Runner) SweepGridStream(ctx context.Context, circuits []*Circuit, paramSets []Params, emit func(GridCell) error) error {
	ests, err := r.gridEstimators(paramSets)
	if err != nil {
		return err
	}
	cols := newGridColumns(paramSets)
	// Stream the cross product row by row. Every row is dispatched even
	// after cancellation — cancelled cells carry the context error — so the
	// stream always accounts for every (circuit, params) pair. Each row
	// borrows a pooled arena for both phases' scratch: the analysis feeds
	// exactly this row, so the graph build runs in the same arena and the
	// whole row is near-allocation-free once the pool is warm.
	err = pool.ForEachOrdered(len(circuits), r.workers, func(i int) []GridCell {
		c := circuits[i]
		row := make([]GridCell, len(paramSets))
		for j := range row {
			row[j] = GridCell{
				CircuitIndex: i,
				ParamsIndex:  j,
				Name:         c.Name,
				Params:       paramSets[j],
			}
		}
		if err := ctx.Err(); err != nil {
			for j := range row {
				row[j].Err = err
			}
			return row
		}
		ar := r.arena()
		defer r.release(ar)
		r.estimateRow(ctx, row, ests, cols,
			func() (string, bool) {
				if ftError(c) != nil {
					return "", false
				}
				d, err := CircuitDigest(c)
				return d, err == nil
			},
			func() (*analysis.Analysis, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				if err := ftError(c); err != nil {
					return nil, err
				}
				t := time.Now()
				a, err := ar.Analyze(c)
				observePhaseDetail(ctx, PhaseAnalyze, t, func() string {
					return "gates=" + itoa(c.NumGates())
				})
				return a, err
			},
			ar)
		return row
	}, emitRow(emit))
	if err != nil {
		return err
	}
	return ctx.Err()
}

// emitRow adapts a per-cell emit callback to the row-granular pool stream.
func emitRow(emit func(GridCell) error) func([]GridCell) error {
	return func(row []GridCell) error {
		for _, cell := range row {
			if err := emit(cell); err != nil {
				return err
			}
		}
		return nil
	}
}

// estimateRow fills one grid row — one circuit under every parameter column
// — in place. digest lazily reports the circuit's content digest (ok ==
// false when unknown or not worth computing); analyze lazily produces the
// shared Analysis; both run at most once. The row consults the result memo
// first (when attached and the digest is known): memo-hit columns skip
// analyze and estimate entirely, and a row whose unique columns all hit
// never touches the circuit at all. Remaining columns estimate as one
// batched call, and duplicate columns alias their representative's Result.
//
// Memo single-flight discipline: claim every column non-blocking first,
// compute and fulfill all owned entries, and only then wait on entries
// owned by other rows — rows with overlapping claim sets therefore cannot
// deadlock. Errors are never memoized; if a foreign owner fails, the waiter
// recomputes its column directly once.
func (r *Runner) estimateRow(ctx context.Context, row []GridCell, ests []*core.Estimator, cols *gridColumns,
	digest func() (string, bool), analyze func() (*analysis.Analysis, error), ar *analysis.Arena) {
	res := make([]*EstimateResult, len(row))
	errs := make([]error, len(row))

	var owned, foreign map[int]*memoEntry
	probed := false
	if r.memo != nil {
		if d, ok := digest(); ok {
			probed = true
			for _, j := range cols.uniq {
				e, own := r.memo.claim(r.memoKey(d, cols.keys[j]))
				if own {
					if owned == nil {
						owned = make(map[int]*memoEntry)
					}
					owned[j] = e
				} else {
					if foreign == nil {
						foreign = make(map[int]*memoEntry)
					}
					foreign[j] = e
				}
			}
		}
	}
	compute := cols.uniq
	if len(foreign) > 0 {
		compute = make([]int, 0, len(cols.uniq))
		for _, j := range cols.uniq {
			if _, ok := foreign[j]; !ok {
				compute = append(compute, j)
			}
		}
	}

	var a *analysis.Analysis
	var aerr error
	analyzed := false
	ensure := func() (*analysis.Analysis, error) {
		if !analyzed {
			analyzed = true
			a, aerr = analyze()
		}
		return a, aerr
	}

	if len(compute) > 0 {
		if a, err := ensure(); err != nil {
			for _, j := range compute {
				errs[j] = err
			}
		} else if err := ctx.Err(); err != nil {
			for _, j := range compute {
				errs[j] = err
			}
		} else if len(compute) == 1 {
			// One column to compute: the single-column estimate is the
			// batched call's bitwise definition and skips its table setup.
			j := compute[0]
			t := time.Now()
			res[j], errs[j] = ests[j].EstimateAnalysisArena(a, ar)
			observePhaseDetail(ctx, PhaseEstimate, t, func() string {
				if probed {
					return "cols=1 memo=miss"
				}
				return "cols=1"
			})
		} else {
			sub := make([]*core.Estimator, len(compute))
			for i, j := range compute {
				sub[i] = ests[j]
			}
			t := time.Now()
			bres, berrs := core.EstimateAnalysisBatch(sub, a, ar)
			observePhaseDetail(ctx, PhaseEstimate, t, func() string {
				d := "cols=" + itoa(len(sub))
				if probed {
					d += " memo=miss"
				}
				return d
			})
			for i, j := range compute {
				res[j], errs[j] = bres[i], berrs[i]
			}
		}
		for _, j := range compute {
			if e, ok := owned[j]; ok {
				r.memo.fulfill(e, res[j], errs[j])
			}
		}
	} else if probed && len(cols.uniq) > 0 {
		// Every unique column is in flight or resident elsewhere: the row
		// skips analyze and estimate entirely. Record the skip on the trace
		// so a warm cell's span shows where the time didn't go.
		observePhaseDetail(ctx, PhaseEstimate, time.Now(), func() string {
			return "cols=0 memo=hit"
		})
	}

	for j, e := range foreign {
		cr, cerr := e.wait(ctx)
		switch {
		case cerr == nil:
			res[j] = cr
		case ctx.Err() != nil:
			errs[j] = ctx.Err()
		default:
			// The owning row failed and unpublished the entry. Its error may
			// have been transient (its context, not ours), so recompute this
			// column directly once rather than inheriting it.
			if a, err := ensure(); err != nil {
				errs[j] = err
			} else {
				t := time.Now()
				res[j], errs[j] = ests[j].EstimateAnalysisArena(a, ar)
				observePhase(ctx, PhaseEstimate, t)
			}
		}
	}

	for jj := range row {
		j := cols.rep[jj]
		row[jj].Result, row[jj].Err = res[j], errs[j]
	}
}

// RunStream is Run with per-result delivery: every SweepResult reaches emit
// in input order as soon as its prefix is complete.
func (r *Runner) RunStream(ctx context.Context, circuits []*Circuit, emit func(SweepResult) error) error {
	return r.runStream(ctx, len(circuits), func(i int) SweepResult {
		c := circuits[i]
		sr := SweepResult{Index: i, Name: c.Name}
		sr.Result, sr.Err = r.estimateOne(ctx, c)
		return sr
	}, func(i int) string { return circuits[i].Name }, emit)
}

// RunNamedStream is RunNamed with per-result delivery: generation, FT
// lowering, graph builds and estimation all happen inside the pool, and
// each finished benchmark streams out in input order.
func (r *Runner) RunNamedStream(ctx context.Context, names []string, emit func(SweepResult) error) error {
	return r.runStream(ctx, len(names), func(i int) SweepResult {
		return r.generateAndEstimate(ctx, i, names[i])
	}, func(i int) string { return names[i] }, emit)
}

// runStream fans the per-item work across the pool and delivers results in
// input order. Cancelled slots fast-path into error results so the stream
// accounts for every input; emit failures stop the feed.
func (r *Runner) runStream(ctx context.Context, n int, work func(i int) SweepResult, name func(i int) string, emit func(SweepResult) error) error {
	err := pool.ForEachOrdered(n, r.workers, func(i int) SweepResult {
		if err := ctx.Err(); err != nil {
			return SweepResult{Index: i, Name: name(i), Err: err}
		}
		return work(i)
	}, emit)
	if err != nil {
		return err
	}
	return ctx.Err()
}

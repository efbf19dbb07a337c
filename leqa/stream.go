package leqa

import (
	"context"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/leqa/trace"
)

// This file is the Runner's one estimation engine. Every estimate — a
// materialized circuit, a streamed netlist, a store-resident analysis —
// is a row: one Source under every parameter column. A worker owns the
// whole row, analyzes the source at most once in its own arena, and runs
// the estimate phase as one batched core.EstimateAnalysisBatch call (a
// single column is a row of one). Rows reach the caller in strict input
// order as soon as the contiguous prefix through them has completed, so
// the collected and streamed forms are bitwise identical by construction.

// SweepGridSources estimates the sources × paramSets cross product and
// collects the cells in circuit-major input order: the cell for source i
// under parameter set j is at index i·len(paramSets)+j. Each source is
// opened and analyzed exactly once, and the analysis feeds every column,
// so a beyond-memory netlist is read once per run, not once per cell.
// Duplicate parameter columns are estimated once. The error is non-nil
// when ctx was cancelled or a parameter set fails validation (then no
// cell is returned); per-source and per-cell failures land in
// GridCell.Err.
func (r *Runner) SweepGridSources(ctx context.Context, sources []Source, paramSets []Params) ([]GridCell, error) {
	cells := make([]GridCell, 0, len(sources)*len(paramSets))
	err := r.SweepGridSourcesStream(ctx, sources, paramSets, func(cell GridCell) error {
		cells = append(cells, cell)
		return nil
	})
	if err != nil && len(cells) == 0 && ctx.Err() == nil {
		return nil, err // parameter-set validation failure: nothing ran
	}
	return cells, err
}

// SweepGridSourcesStream is SweepGridSources with per-row delivery: every
// cell reaches emit, in circuit-major input order, as soon as its row and
// every row before it have completed. emit runs on the caller's goroutine
// (safe for http.ResponseWriter and other single-goroutine sinks). A
// non-nil emit error — a disconnected client, typically — stops the feed
// and is returned; rows not yet started never run. Cancellation is
// observed per row and per gate: cells that never ran carry ctx's error,
// every (source, params) pair is still delivered, and the function
// returns ctx.Err() after the last delivery. A parameter-set validation
// failure is returned before any work starts.
//
// How a row obtains its analysis depends on the source:
//   - Source.Analysis set: used as given; Open is never called.
//   - an attached AnalysisStore: the stream is digested and resolved
//     through the store (a hit skips the graph build, a miss analyzes and
//     persists).
//   - CircuitSource: the gate list is analyzed in place, and its digest is
//     computed only when the result memo needs it.
//   - any other source: the opened stream flows through the FT guard into
//     the streamed analysis.
//
// With a result memo attached and the digest known, memo-hit columns skip
// analyze and estimate entirely.
func (r *Runner) SweepGridSourcesStream(ctx context.Context, sources []Source, paramSets []Params, emit func(GridCell) error) error {
	ests, err := r.gridEstimators(paramSets)
	if err != nil {
		return err
	}
	cols := newGridColumns(paramSets)
	err = pool.ForEachOrdered(len(sources), r.workers, func(i int) []GridCell {
		s := sources[i]
		row := make([]GridCell, len(paramSets))
		for j := range row {
			row[j] = GridCell{
				CircuitIndex: i,
				ParamsIndex:  j,
				Name:         s.Name,
				Params:       paramSets[j],
			}
		}
		if err := ctx.Err(); err != nil {
			for j := range row {
				row[j].Err = err
			}
			return row
		}
		// The row's analysis feeds exactly this row, so the graph build and
		// the estimate scratch share one pooled arena, and a warm row is
		// near-allocation-free.
		ar := r.arena()
		defer r.release(ar)
		digest, analyze := r.rowSource(ctx, s, ar)
		r.estimateRow(ctx, row, ests, cols, digest, analyze, ar)
		return row
	}, emitRow(emit))
	if err != nil {
		return err
	}
	return ctx.Err()
}

// rowSource picks how one source's row learns its digest and builds its
// analysis (see SweepGridSourcesStream). Both callbacks are lazy:
// estimateRow calls each at most once, and not at all when the memo
// answers every column.
func (r *Runner) rowSource(ctx context.Context, s Source, ar *analysis.Arena) (digest func() (string, bool), analyze func() (*analysis.Analysis, error)) {
	digest = func() (string, bool) { return s.Digest, s.Digest != "" }
	switch {
	case s.Analysis != nil:
		analyze = func() (*analysis.Analysis, error) {
			// By-reference resolution: no ingest or graph build happened, but
			// a zero-duration analyze span keeps the request's store
			// attribution visible — which tier answered when the resolver
			// said, "ref" when the analysis arrived with no provenance.
			if tr := trace.FromContext(ctx); tr != nil {
				outcome := s.StoreOutcome
				if outcome == "" {
					outcome = "ref"
				}
				tr.Observe(trace.SpanAnalyze, "store="+outcome+" gates="+itoa(s.Analysis.Operations), time.Now(), 0)
			}
			return s.Analysis, nil
		}
	case r.store != nil:
		analyze = func() (*analysis.Analysis, error) {
			src, err := openSource(ctx, s)
			if err != nil {
				return nil, err
			}
			defer closeStream(src.src)
			t := time.Now()
			a, _, outcome, err := r.store.GetOrAnalyzeOutcome(src)
			observePhaseDetail(ctx, PhaseAnalyze, t, func() string {
				d := "store=" + outcome.String()
				if a != nil {
					d += " gates=" + itoa(a.Operations)
				}
				return d
			})
			return a, err
		}
	case s.circuit != nil:
		c := s.circuit
		if s.Digest == "" {
			digest = func() (string, bool) {
				if ftError(c) != nil {
					return "", false
				}
				d, err := CircuitDigest(c)
				return d, err == nil
			}
		}
		analyze = func() (*analysis.Analysis, error) {
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
		}
	default:
		analyze = func() (*analysis.Analysis, error) {
			src, err := openSource(ctx, s)
			if err != nil {
				return nil, err
			}
			defer closeStream(src.src)
			t := time.Now()
			a, err := r.est.AnalyzeStreamFT(src, ar)
			observePhaseDetail(ctx, PhaseAnalyze, t, func() string {
				if a == nil {
					return "streamed"
				}
				return "streamed gates=" + itoa(a.Operations)
			})
			return a, err
		}
	}
	return digest, analyze
}

// openSource opens a lazy source as the row's ingest phase and threads
// ctx's cancellation into the flowing stream.
func openSource(ctx context.Context, s Source) (*ctxStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := time.Now()
	src, err := s.Open()
	observePhaseDetail(ctx, PhaseIngest, t, func() string { return "open=" + s.Name })
	if err != nil {
		return nil, err
	}
	return &ctxStream{src: src, ctx: ctx}, nil
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

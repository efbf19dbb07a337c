package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/benchgen"
	"repro/leqa"
	"repro/leqa/trace"
)

// gridCircuits are design-grid's rows: the paper benchmarks in operation
// order up to hwb200ps (16 of the 18, each under effMaxOps operations),
// analyzed once at set-up.
func gridCircuits() []string { return benchgen.PaperBenchmarks[:16] }

// designGrid is the §4.2 design-space sweep: pre-analyzed circuits × K
// freshly drawn parameter columns per pass, through the Runner's row pool,
// with no memo. Ingest and analysis do no work; every zone-model key
// misses.
type designGrid struct {
	seed    uint64
	bands   [2][]leqa.Source // rows below / at or above smallOps operations
	byName  map[string]*leqa.Analysis
	runner  *leqa.Runner
	samples []gridSample
}

// gridSample is one cell kept for the cross-check after the timed window.
type gridSample struct {
	circuit string
	ps      paramSet
	got     float64
}

func newDesignGrid(seed uint64) *designGrid { return &designGrid{seed: seed} }

func (w *designGrid) setup(ctx context.Context) error {
	w.bands = [2][]leqa.Source{}
	w.byName = map[string]*leqa.Analysis{}
	for _, n := range gridCircuits() {
		c, err := leqa.GenerateFT(n)
		if err != nil {
			return err
		}
		a, err := leqa.Analyze(c)
		if err != nil {
			return err
		}
		band := 0
		if a.Operations >= smallOps {
			band = 1
		}
		w.bands[band] = append(w.bands[band], leqa.AnalysisSource(n, a))
		w.byName[n] = a
	}
	r, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, runtime.NumCPU())
	if err != nil {
		return err
	}
	w.runner = r
	w.samples = nil
	_, err = w.pass(ctx, newRNG(w.seed, 1), nil, nil)
	return err
}

// pass estimates every row under gridK fresh columns, as two grid calls:
// the rows below smallOps operations, then the rows at or above it. One
// seeded cell per call is kept for the cross-check.
func (w *designGrid) pass(ctx context.Context, rng *rand.Rand, rec *recorder, rep *report) ([]call, error) {
	cols := drawColumns(rng, gridK)
	var calls []call
	for band, rows := range w.bands {
		cctx := ctx
		var tr *trace.Trace
		op := rec.newOp()
		var id int64
		if rec != nil {
			tr = trace.New(fmt.Sprintf("grid-%d", op))
			cctx = trace.NewContext(ctx, tr)
			id = rec.begin(op, 0, "leqa", "leqa.sweep_grid_sources", fmt.Sprintf("band%d", band))
		}
		t := time.Now()
		cells, err := w.runner.SweepGridSources(cctx, rows, paramsOf(cols))
		d := time.Since(t)
		rec.end(id)
		for _, pt := range tr.Totals() {
			rec.report(op, id, "program", "program."+pt.Name, fmt.Sprintf("band%d", band), pt.SumMs)
		}
		if err == nil && len(cells) != len(rows)*len(cols) {
			err = fmt.Errorf("grid returned %d cells, want %d", len(cells), len(rows)*len(cols))
		}
		c := call{ms: ms(d), large: band == 1, err: err}
		for _, cell := range cells {
			if cell.Err != nil && c.err == nil {
				c.err = cell.Err
			}
			if cell.Err == nil {
				c.cells++
				c.gates += float64(cell.Result.Operations)
			}
		}
		if rep == nil && c.err != nil {
			return calls, c.err
		}
		rep.count("grid", c.err)
		if len(cells) > 0 {
			cell := cells[rng.IntN(len(cells))]
			if cell.Err == nil {
				w.samples = append(w.samples, gridSample{cell.Name, cols[cell.ParamsIndex], cell.Result.EstimatedLatency})
			}
		}
		calls = append(calls, c)
	}
	return calls, nil
}

// run makes passes until d has passed (at least one); each pass is one
// slice of the phase.
func (w *designGrid) run(ctx context.Context, d time.Duration, rec *recorder, rep *report) phase {
	rng := newRNG(w.seed, 2)
	var ph phase
	t0 := time.Now()
	for len(ph.slices) == 0 || time.Since(t0) < d {
		tp := time.Now()
		calls, _ := w.pass(ctx, rng, rec, rep)
		sweep := 0.0 // the whole pass is what a sweeping caller waits for
		for _, c := range calls {
			c.slice = len(ph.slices)
			ph.calls = append(ph.calls, c)
			sweep += latency(c)
		}
		ph.lat = append(ph.lat, sweep)
		ph.slices = append(ph.slices, ms(time.Since(tp)))
	}
	return ph
}

// verify recomputes the sampled cells with the single-column estimator.
func (w *designGrid) verify(rep *report) {
	for _, s := range w.samples {
		if err := checkAgainst(w.byName[s.circuit], s.ps, s.got); err != nil {
			rep.recount("grid", err)
		}
	}
	rep.note("cross-checked %d sampled cells against the single-column estimator", len(w.samples))
}

func (w *designGrid) probeInputs() probeInputs {
	return probeInputs{names: gridCircuits(), specs: svcSpecs}
}

// coverage is the share of the Runner's core time the rows account for
// when each is timed alone: Σ solo rows / (pass wall × workers).
func (w *designGrid) coverage(untraced, _ phase, pr probeResult) float64 {
	return 100 * median(pr.soloRowMs) / (median(untraced.slices) * float64(pr.workers))
}

func (w *designGrid) close() {}

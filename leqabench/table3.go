package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/benchgen"
	"repro/leqa"
	"repro/leqa/trace"
)

// smallOps splits table3-cold's circuits into the small band (12 circuits,
// through gf2^50mult) and the large band (gf2^64mult and up).
const smallOps = 50_000

// table3Cold estimates each of the paper's 18 benchmarks from in-memory
// bytes, as .qc text and as .qcb, one caller, no memo, no store: every
// operation parses and analyzes (PAPER.md Table 3).
type table3Cold struct {
	seed   uint64
	nets   []netlist
	runner *leqa.Runner
	def    paramSet
}

func newTable3Cold(seed uint64) *table3Cold { return &table3Cold{seed: seed} }

type t3item struct {
	nl  *netlist
	fmt string
	b   []byte
}

func (w *table3Cold) items() []t3item {
	var its []t3item
	for i := range w.nets {
		nl := &w.nets[i]
		its = append(its, t3item{nl, "qc", nl.qc}, t3item{nl, "qcb", nl.qcb})
	}
	return its
}

func (w *table3Cold) setup(ctx context.Context) error {
	w.nets = w.nets[:0]
	for _, n := range benchgen.PaperBenchmarks {
		nl, _, err := makeNetlist(n)
		if err != nil {
			return err
		}
		w.nets = append(w.nets, nl)
	}
	w.def = defaultParams()
	r, err := leqa.NewRunner(w.def.p, leqa.EstimateOptions{}, 0)
	if err != nil {
		return err
	}
	w.runner = r
	// Warm-up: the first cold pass reads markedly slower than later ones.
	_, err = w.pass(ctx, newRNG(w.seed, 1), nil, nil)
	return err
}

// t3pass is one pass: its calls and, per "circuit/format" item, the call
// time.
type t3pass struct {
	calls  []call
	itemMs map[string]float64
}

// pass estimates every item once in a seeded order. With rec non-nil each
// call is a traced span carrying a leqa/trace context, whose phases are
// reported beside it. rep nil (the warm-up) stops at the first failure.
func (w *table3Cold) pass(ctx context.Context, rng *rand.Rand, rec *recorder, rep *report) (t3pass, error) {
	its := w.items()
	p := t3pass{itemMs: map[string]float64{}}
	for _, i := range rng.Perm(len(its)) {
		it := its[i]
		item := it.nl.name + "/" + it.fmt
		src := leqa.ReaderSource(it.nl.name, bytes.NewReader(it.b), leqa.IngestOptions{})
		cctx := ctx
		var tr *trace.Trace
		op := rec.newOp()
		var id int64
		if rec != nil {
			tr = trace.New(fmt.Sprintf("t3-%d", op))
			cctx = trace.NewContext(ctx, tr)
			id = rec.begin(op, 0, "leqa", "leqa.sweep_grid_sources", item)
		}
		t := time.Now()
		cells, err := w.runner.SweepGridSources(cctx, []leqa.Source{src}, []leqa.Params{w.def.p})
		d := time.Since(t)
		rec.end(id)
		if err == nil {
			err = cells[0].Err
		}
		if err == nil {
			err = checkExpected(it.nl.name, w.def.label, cells[0].Result.EstimatedLatency)
		}
		if rep == nil && err != nil {
			return p, err
		}
		rep.count("estimate", err)
		for _, pt := range tr.Totals() {
			rec.report(op, id, "program", "program."+pt.Name, item, pt.SumMs)
		}
		p.calls = append(p.calls, call{ms: ms(d), cells: 1, gates: float64(it.nl.ops), large: it.nl.ops >= smallOps, err: err})
		p.itemMs[item] = ms(d)
	}
	return p, nil
}

// run makes full passes until d has passed (at least one); each pass is one
// slice of the phase.
func (w *table3Cold) run(ctx context.Context, d time.Duration, rec *recorder, rep *report) phase {
	rng := newRNG(w.seed, 2)
	var ph phase
	var passes []t3pass
	t0 := time.Now()
	for len(passes) == 0 || time.Since(t0) < d {
		tp := time.Now()
		p, _ := w.pass(ctx, rng, rec, rep)
		for _, c := range p.calls {
			c.slice = len(passes)
			ph.calls = append(ph.calls, c)
			ph.lat = append(ph.lat, latency(c))
		}
		ph.slices = append(ph.slices, ms(time.Since(tp)))
		passes = append(passes, p)
	}
	ph.extra = passes
	return ph
}

func (w *table3Cold) verify(rep *report) {}

func (w *table3Cold) probeInputs() probeInputs {
	return probeInputs{names: benchgen.PaperBenchmarks, specs: svcSpecs}
}

// coverage compares, item by item, the probe's layer calls on the estimate
// path with the whole call measured untraced.
func (w *table3Cold) coverage(untraced, _ phase, pr probeResult) float64 {
	mean := map[string]float64{}
	n := map[string]float64{}
	for _, p := range untraced.extra.([]t3pass) {
		for k, v := range p.itemMs {
			mean[k] += v
			n[k]++
		}
	}
	var layers, whole float64
	for k, v := range mean {
		if l, ok := pr.pathMs[k]; ok {
			layers += l
			whole += v / n[k]
		}
	}
	return 100 * layers / whole
}

func (w *table3Cold) close() {}

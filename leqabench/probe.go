package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/qodg"
	"repro/internal/zonemodel"
	"repro/leqa"
)

// gridK is the number of parameter columns per design-grid row; the probe's
// batched calls use the same width.
const gridK = 8

// effMaxOps bounds the circuits the probe's parallel-efficiency grid pass
// keeps analyzed at once, so its memory stays near design-grid's own.
const effMaxOps = 200_000

// probeInputs are the circuits and generator specs a workload's layer
// probe times, taken from the workload's own inputs.
type probeInputs struct {
	names []string // paper benchmark circuits, FT-lowered
	specs []string // generator specs for benchgen
}

// probeItem is one circuit prepared for the probe. The materialized
// circuit is regenerated per visit, untimed, so only one is alive at once.
type probeItem struct {
	nl        netlist
	nodesPerL float64
}

// probeResult feeds the workloads' coverage figures.
type probeResult struct {
	// pathMs is, per "circuit/format" item, the mean time of the layer
	// calls on table3-cold's estimate path: streamed analysis (parse
	// included) plus the single-column estimate.
	pathMs map[string]float64
	// soloRowMs is, per cycle, the summed time of the batched rows run
	// one at a time.
	soloRowMs []float64
	workers   int
}

// layerAcc accumulates one layer metric over a probe cycle.
type layerAcc struct{ ms, n, work float64 }

func (l *layerAcc) add(d time.Duration, work float64) {
	l.ms += ms(d)
	l.n++
	l.work += work
}

// runProbe times each layer's public call on the workload's inputs, cycle
// after cycle until d has passed (at least one cycle), and stores the
// per-layer metrics in rep.
func runProbe(ctx context.Context, in probeInputs, seed uint64, d time.Duration, rec *recorder, rep *report) (probeResult, error) {
	items := make([]probeItem, 0, len(in.names))
	for _, n := range in.names {
		nl, _, err := makeNetlist(n)
		if err != nil {
			return probeResult{}, err
		}
		items = append(items, probeItem{nl: nl})
	}
	rng := newRNG(seed, 77)
	def := defaultParams()
	estDef, err := core.New(def.p, core.Options{})
	if err != nil {
		return probeResult{}, err
	}
	workers := runtime.NumCPU()
	runner, err := leqa.NewRunner(def.p, leqa.EstimateOptions{}, workers)
	if err != nil {
		return probeResult{}, err
	}
	ar := analysis.NewArena()
	var wbuf qodg.Weights
	pr := probeResult{pathMs: map[string]float64{}, workers: workers}
	pathN := map[string]float64{}

	cycles := map[string][]float64{} // metric → per-cycle value
	perCycle := func(name string, v float64) { cycles[name] = append(cycles[name], v) }
	// Each circuit, spec and grid pass is one probe operation; a failed
	// call or an estimate that differs from its expected value fails it.
	var opErr error
	fail := func(err error) {
		if opErr == nil {
			opErr = err
		}
	}
	done := func() {
		rep.count("probe", opErr)
		opErr = nil
	}
	// The probe times the longest path and the zone model on their own by
	// rebuilding their inputs (zoneKey, weightOf) from an estimate's public
	// intermediates. Those rebuilds copy core internals, so a rebuilt part
	// that does not reproduce its estimate is reported as a note on the
	// timing, never as a failed operation.
	var rebuilds, disagreements int
	var firstDisagreement error
	rebuilt := func(err error) {
		rebuilds++
		if err != nil {
			disagreements++
			if firstDisagreement == nil {
				firstDisagreement = err
			}
		}
	}

	deadline := time.Now().Add(d)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		if ctx.Err() != nil {
			break
		}
		acc := map[string]*layerAcc{}
		get := func(k string) *layerAcc {
			if acc[k] == nil {
				acc[k] = &layerAcc{}
			}
			return acc[k]
		}
		var allocBytes, gates, selfCore float64
		var nodes, levels float64
		cols := drawColumns(rng, gridK)
		ests := make([]*core.Estimator, len(cols))
		for j, c := range cols {
			if ests[j], err = core.New(c.p, core.Options{}); err != nil {
				return pr, err
			}
		}
		var effSources []leqa.Source
		var effSolo float64
		order := rng.Perm(len(items))
		for _, i := range order {
			it := &items[i]
			name := it.nl.name
			op := rec.newOp()
			root := rec.begin(op, 0, "probe", "probe.circuit", name)

			// ingest: scan each container to EOF; analysis: the streamed
			// build over the same bytes, parse included.
			for _, f := range []struct {
				name string
				b    []byte
			}{{"qc", it.nl.qc}, {"qcb", it.nl.qcb}} {
				id := rec.begin(op, root, "ingest", "ingest.scan_"+f.name, name)
				t := time.Now()
				if err := scanAll(f.b, name); err != nil {
					fail(err)
				}
				dt := time.Since(t)
				rec.end(id)
				get("scan_"+f.name).add(dt, float64(len(f.b)))

				id = rec.begin(op, root, "analysis", "analysis.stream_"+f.name, name)
				t = time.Now()
				st, err := ingest.NewAutoStream(bytes.NewReader(f.b), name, ingest.Options{})
				if err == nil {
					_, err = estDef.AnalyzeStreamFT(st, ar)
					st.Close()
				}
				ds := time.Since(t)
				rec.end(id)
				if err != nil {
					fail(fmt.Errorf("analyze stream %s: %w", name, err))
				}
				get("stream").add(ds, float64(it.nl.ops))
				pr.pathMs[name+"/"+f.name] += ms(ds)
				pathN[name+"/"+f.name]++
			}

			// analysis: the materialized build, with its allocations.
			c, err := leqa.GenerateFT(name)
			if err != nil {
				return pr, err
			}
			rt0 := readRuntime()
			id := rec.begin(op, root, "analysis", "analysis.build", name)
			t := time.Now()
			a, err := analysis.Analyze(c)
			db := time.Since(t)
			rec.end(id)
			allocBytes += readRuntime().sub(rt0).allocBytes
			if err != nil {
				fail(fmt.Errorf("analyze %s: %w", name, err))
				rec.end(root)
				done()
				continue
			}
			get("build").add(db, float64(it.nl.ops))
			gates += float64(it.nl.ops)
			if it.nodesPerL == 0 {
				depth := 0
				for _, l := range a.QODG.Levels() {
					depth = max(depth, l+1)
				}
				it.nodesPerL = float64(a.QODG.NumNodes()) / float64(depth)
			}
			nodes += float64(a.QODG.NumNodes())
			levels += float64(a.QODG.NumNodes()) / it.nodesPerL

			// core: the single-column estimate, then its qodg and
			// zonemodel parts timed on their own.
			id = rec.begin(op, root, "core", "core.estimate", name)
			t = time.Now()
			res, err := estDef.EstimateAnalysisArena(a, ar)
			de := time.Since(t)
			rec.end(id)
			if err != nil {
				fail(fmt.Errorf("estimate %s: %w", name, err))
				rec.end(root)
				done()
				continue
			}
			get("estimate").add(de, 1)
			for _, f := range []string{"qc", "qcb"} {
				pr.pathMs[name+"/"+f] += ms(de)
			}
			if err := checkExpected(name, def.label, res.EstimatedLatency); err != nil {
				fail(err)
			}
			var dz time.Duration
			if key, ok := zoneKey(a, def.p, res); ok {
				id = rec.begin(op, root, "zonemodel", "zonemodel.get", name)
				t = time.Now()
				_, err = zonemodel.Shared.Get(key)
				dz = time.Since(t)
				rec.end(id)
				rebuilt(err)
			}
			wbuf = a.QODG.NewWeightsInto(wbuf, weightOf(def.p, res))
			id = rec.begin(op, root, "qodg", "qodg.longest_path", name)
			t = time.Now()
			cp, err := a.QODG.LongestPathInto(wbuf, ar.Path())
			dl := time.Since(t)
			rec.end(id)
			if err == nil && math.Float64bits(cp.Length) != math.Float64bits(res.EstimatedLatency) {
				err = fmt.Errorf("%s: longest path %v, estimate %v", name, cp.Length, res.EstimatedLatency)
			}
			rebuilt(err)
			get("longest_path").add(dl, 1)
			selfCore += ms(de - dl - dz)

			// core + qodg + zonemodel at design-grid's width K.
			id = rec.begin(op, root, "core", "core.estimate_batch", name)
			t = time.Now()
			results, errs := core.EstimateAnalysisBatch(ests, a, ar)
			dB := time.Since(t)
			rec.end(id)
			get("batch").add(dB, 1)
			// The batched call is done with the arena's slab; refill it
			// from the results for the multi-weight traversal alone.
			slab := ar.MultiWeightSlab(a.QODG, gridK)
			for j := range cols {
				if errs[j] != nil {
					fail(fmt.Errorf("batch %s column %s: %w", name, cols[j].label, errs[j]))
					continue
				}
				if key, ok := zoneKey(a, cols[j].p, results[j]); ok {
					id = rec.begin(op, root, "zonemodel", "zonemodel.compute", name)
					t = time.Now()
					m, err := zonemodel.Compute(key)
					dc := time.Since(t)
					rec.end(id)
					get("compute").add(dc, 1)
					if err == nil && math.Float64bits(m.LCNOT) != math.Float64bits(results[j].LCNOTAvg) {
						err = fmt.Errorf("%s column %s: zone model L_CNOT %v, estimate %v", name, cols[j].label, m.LCNOT, results[j].LCNOTAvg)
					}
					rebuilt(err)
				}
				w := weightOf(cols[j].p, results[j])
				for v, node := range a.QODG.Nodes {
					x := 0.0
					if !node.IsPseudo() {
						x = w(node.Op)
					}
					slab[v*gridK+j] = x
				}
			}
			id = rec.begin(op, root, "qodg", "qodg.longest_path_multi", name)
			t = time.Now()
			cps, err := a.QODG.LongestPathMultiStrided(slab, gridK, ar.Path())
			dm := time.Since(t)
			rec.end(id)
			get("longest_path_multi").add(dm, 1)
			for j := range cols {
				if errs[j] != nil {
					continue
				}
				e := err
				if e == nil && math.Float64bits(cps[j].Length) != math.Float64bits(results[j].EstimatedLatency) {
					e = fmt.Errorf("%s column %s: multi-weight path %v, estimate %v", name, cols[j].label, cps[j].Length, results[j].EstimatedLatency)
				}
				rebuilt(e)
			}
			if it.nl.ops < effMaxOps {
				effSources = append(effSources, leqa.AnalysisSource(name, a))
				effSolo += ms(dB)
			}
			rec.end(root)
			done()
		}

		// benchgen: generation plus FT lowering of each spec.
		for _, s := range in.specs {
			op := rec.newOp()
			id := rec.begin(op, 0, "benchgen", "benchgen.generate_ft", s)
			t := time.Now()
			_, err := leqa.GenerateFT(s)
			dg := time.Since(t)
			rec.end(id)
			if err != nil {
				fail(err)
			}
			done()
			get("generate").add(dg, 1)
		}

		// leqa: the same rows through the Runner's pool, with fresh
		// columns drawn from the same distribution, so every zone-model
		// key misses as it did for the solo rows.
		if len(effSources) > 0 {
			cols2 := drawColumns(rng, gridK)
			op := rec.newOp()
			id := rec.begin(op, 0, "leqa", "leqa.sweep_grid_sources", "probe")
			t := time.Now()
			cells, err := runner.SweepGridSources(ctx, effSources, paramsOf(cols2))
			dp := time.Since(t)
			rec.end(id)
			if err != nil {
				fail(err)
			}
			for _, c := range cells {
				if c.Err != nil {
					fail(c.Err)
				}
			}
			done()
			pr.soloRowMs = append(pr.soloRowMs, effSolo)
			perCycle("leqa.parallel_efficiency", effSolo/(ms(dp)*float64(workers)))
		}

		mean := func(k string) float64 {
			a := get(k)
			return a.ms / a.n
		}
		perCycle("ingest.scan_qc_ms", mean("scan_qc"))
		perCycle("ingest.scan_qcb_ms", mean("scan_qcb"))
		perCycle("ingest.qc_mb_per_s", get("scan_qc").work/(1<<20)/(get("scan_qc").ms/1e3))
		perCycle("ingest.qcb_mb_per_s", get("scan_qcb").work/(1<<20)/(get("scan_qcb").ms/1e3))
		perCycle("benchgen.generate_ft_ms", mean("generate"))
		perCycle("analysis.build_ms", mean("build"))
		perCycle("analysis.stream_ms", mean("stream"))
		perCycle("analysis.ns_per_gate", get("build").ms*1e6/get("build").work)
		perCycle("analysis.alloc_bytes_per_gate", allocBytes/gates)
		perCycle("qodg.longest_path_ms", mean("longest_path"))
		perCycle("qodg.longest_path_multi_ms", mean("longest_path_multi"))
		perCycle("qodg.nodes_per_level", nodes/levels)
		perCycle("zonemodel.compute_us", mean("compute")*1e3)
		perCycle("core.estimate_ms", mean("estimate"))
		perCycle("core.estimate_batch_ms", mean("batch"))
		perCycle("core.self_ms", selfCore/get("estimate").n)
	}
	for k := range pr.pathMs {
		pr.pathMs[k] /= pathN[k]
	}
	if disagreements == 0 {
		rep.note("probe: all %d rebuilt longest paths and zone-model lookups reproduce their estimates", rebuilds)
	} else {
		rep.note("probe: %d of %d rebuilt longest paths and zone-model lookups DISAGREE with their estimates, "+
			"so the qodg, zonemodel and core.self timings may not match the estimate's work; first: %v",
			disagreements, rebuilds, firstDisagreement)
	}
	units := map[string]string{
		"ingest.qc_mb_per_s": "MB/s", "ingest.qcb_mb_per_s": "MB/s",
		"analysis.ns_per_gate": "ns", "analysis.alloc_bytes_per_gate": "B",
		"qodg.nodes_per_level": "count", "zonemodel.compute_us": "us",
		"leqa.parallel_efficiency": "ratio",
	}
	for name, vs := range cycles {
		u := units[name]
		if u == "" {
			u = "ms"
		}
		rep.set(name, median(vs), u, len(vs))
	}
	return pr, nil
}

// scanAll streams a netlist to EOF through the sniffing reader.
func scanAll(b []byte, name string) error {
	st, err := ingest.NewAutoStream(bytes.NewReader(b), name, ingest.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	for st.Scan() {
	}
	if err := st.Err(); err != nil && err != io.EOF {
		return fmt.Errorf("scan %s: %w", name, err)
	}
	return nil
}

// zoneKey rebuilds the zone-model key an estimate used, from the public
// intermediates it reports. ok is false when the estimate skipped the zone
// model (no two-qubit interactions).
func zoneKey(a *leqa.Analysis, p leqa.Params, res *leqa.EstimateResult) (zonemodel.Key, bool) {
	ig := a.IIG
	if ig.TotalWeight() <= 0 || res.DUncong <= 0 {
		return zonemodel.Key{}, false
	}
	kmax := min(ig.Q, core.DefaultTruncation)
	return zonemodel.NewKey(p.Grid, res.AvgZoneArea, ig.Q, kmax, p.ChannelCapacity, res.DUncong, false), true
}

// weightOf is Algorithm 1's QODG re-weighting (lines 19–20) for one
// column, from the routing latencies its estimate reports.
func weightOf(p leqa.Params, res *leqa.EstimateResult) func(leqa.Gate) float64 {
	return func(g leqa.Gate) float64 {
		if g.Type == circuit.CNOT {
			return p.DCNOT + res.LCNOTAvg
		}
		d, _ := p.DelayOf(g.Type) // the estimate already succeeded with these delays
		return d + res.LOneQubitAvg
	}
}

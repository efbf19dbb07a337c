package core

import (
	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/qodg"
)

// EstimateAnalysisBatch runs Algorithm 1 once per estimator over one shared
// analysis — the K-parameter-column counterpart of EstimateAnalysisArena,
// and the estimate phase of a batched grid row. The scalar phase (zone
// coverage, congestion, the memoized zone model) runs per column exactly as
// the single-column path does; the QODG re-weighting then resolves each
// (column, gate type) weight once against a dense type table, fills one
// interleaved weight slab — node v's K weights contiguous at [v*K] — in a
// single scan down the node array, and a single multi-weight traversal
// (qodg.LongestPathMultiStrided) relaxes every column's critical path at
// once instead of streaming the adjacency K times.
//
// results[j] and errs[j] mirror what ests[j].EstimateAnalysisArena(a, ar)
// would return, bitwise: a column's failure (non-FT analysis, zone-model
// error, missing gate delay) lands in errs[j] and never disturbs its
// neighbors. ar, when non-nil, donates the weight slab and the longest-path
// scratch.
func EstimateAnalysisBatch(ests []*Estimator, a *analysis.Analysis, ar *analysis.Arena) ([]*Result, []error) {
	k := len(ests)
	results := make([]*Result, k)
	errs := make([]error, k)
	if k == 0 {
		return results, errs
	}
	if !a.FT {
		for j := range errs {
			errs[j] = ftErr(a.Name)
		}
		return results, errs
	}
	g, ig := a.QODG, a.IIG

	// Lines 2–18 per column. Columns sharing a fabric configuration share
	// one zone-model computation through the zonemodel memo, exactly as
	// repeated single-column calls would.
	live := make([]int, 0, k)
	for j, e := range ests {
		results[j], errs[j] = e.scalarPhase(a.Qubits, a.Operations, ig)
		if errs[j] == nil {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return results, errs
	}

	// Lines 19–20, fused. Gate types present in the graph, in first-
	// appearance order — the order the serial weightOf closure would first
	// touch each type in, so a column's first DelayOf failure is the same
	// error the serial scan records.
	var present []circuit.GateType
	var seen []bool
	for _, node := range g.Nodes {
		if node.IsPseudo() {
			continue
		}
		t := int(node.Op.Type)
		for t >= len(seen) {
			seen = append(seen, false)
		}
		if !seen[t] {
			seen[t] = true
			present = append(present, node.Op.Type)
		}
	}

	// Resolve every (column, present type) weight before touching the node
	// array: d_CNOT + L_CNOT^avg for CNOTs, d_g + L_g^avg otherwise — the
	// serial weightOf arithmetic, once per type instead of once per gate.
	// Columns whose fabric lacks a delay fail here and are dropped from the
	// traversal, so the slab holds exactly the clean columns.
	runJ := make([]int, 0, len(live))
	tabs := make([][]float64, 0, len(live))
	for _, j := range live {
		tab := make([]float64, len(seen))
		var colErr error
		p := ests[j].Params
		for _, t := range present {
			if t == circuit.CNOT {
				tab[int(t)] = p.DCNOT + results[j].LCNOTAvg
				continue
			}
			d, err := p.DelayOf(t)
			if err != nil {
				colErr = err
				break
			}
			tab[int(t)] = d + results[j].LOneQubitAvg
		}
		if colErr != nil {
			results[j], errs[j] = nil, colErr
			continue
		}
		runJ = append(runJ, j)
		tabs = append(tabs, tab)
	}
	if len(runJ) == 0 {
		return results, errs
	}

	// Interleave the per-column tables into per-type K-rows, then fill the
	// weight slab with one contiguous row copy per node.
	kr := len(runJ)
	rowTab := make([]float64, len(seen)*kr)
	for i, tab := range tabs {
		for _, t := range present {
			rowTab[int(t)*kr+i] = tab[int(t)]
		}
	}
	var wm []float64
	var scratch *qodg.PathScratch
	if ar != nil {
		wm = ar.MultiWeightSlab(g, kr)
		scratch = ar.Path()
	} else {
		wm = make([]float64, len(g.Nodes)*kr)
	}
	for v, node := range g.Nodes {
		row := wm[v*kr : (v+1)*kr]
		if node.IsPseudo() {
			clear(row)
			continue
		}
		tb := int(node.Op.Type) * kr
		copy(row, rowTab[tb:tb+kr])
	}

	// One traversal for every column that built a clean weight table.
	cps, err := g.LongestPathMultiStrided(wm, kr, scratch)
	if err != nil {
		for _, j := range runJ {
			results[j], errs[j] = nil, err
		}
		return results, errs
	}
	for i, j := range runJ {
		finishPath(results[j], cps[i])
		if err := checkFinite("D", results[j].EstimatedLatency); err != nil {
			results[j], errs[j] = nil, err
		}
	}
	return results, errs
}

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/leqa"
)

// expectedJSON holds the committed EstimatedLatency of every fixed-param
// cell the workloads send, as exact float64 bits keyed "circuit|params".
// Regenerate with --write-expected after an intentional estimator change.
//
//go:embed expected.json
var expectedJSON []byte

var expected = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("expected.json: %v", err))
	}
	return m
}()

func cellKey(circuit, params string) string { return circuit + "|" + params }

func bitsString(v float64) string { return fmt.Sprintf("0x%016x", math.Float64bits(v)) }

// checkExpected compares an estimate with its committed value.
func checkExpected(circuit, params string, got float64) error {
	want, ok := expected[cellKey(circuit, params)]
	if !ok {
		return fmt.Errorf("no expected value for %s under %s", circuit, params)
	}
	if g := bitsString(got); g != want {
		return fmt.Errorf("%s under %s: estimate %s (%v), expected %s", circuit, params, g, got, want)
	}
	return nil
}

// checkAgainst recomputes one cell with the single-column estimator on a
// pre-built analysis and compares bit for bit.
func checkAgainst(a *leqa.Analysis, ps paramSet, got float64) error {
	est, err := core.New(ps.p, core.Options{})
	if err != nil {
		return err
	}
	res, err := est.EstimateAnalysis(a)
	if err != nil {
		return err
	}
	if math.Float64bits(res.EstimatedLatency) != math.Float64bits(got) {
		return fmt.Errorf("%s under %s: estimate %v, single-column estimator gives %v",
			a.Name, ps.label, got, res.EstimatedLatency)
	}
	return nil
}

// writeExpected computes every fixed-param cell on the materialized
// estimate path and writes the table.
func writeExpected(path string) error {
	cells := map[string][]paramSet{}
	for _, n := range benchgen.PaperBenchmarks {
		cells[n] = []paramSet{defaultParams()}
	}
	for _, n := range svcNames() {
		cells[n] = paramPool()
	}
	names := make([]string, 0, len(cells))
	for n := range cells {
		names = append(names, n)
	}
	sort.Strings(names)
	out := map[string]string{}
	for _, n := range names {
		c, err := leqa.GenerateFT(n)
		if err != nil {
			return err
		}
		for _, ps := range cells[n] {
			est, err := core.New(ps.p, core.Options{})
			if err != nil {
				return err
			}
			res, err := est.Estimate(c)
			if err != nil {
				return fmt.Errorf("%s under %s: %w", n, ps.label, err)
			}
			out[cellKey(n, ps.label)] = bitsString(res.EstimatedLatency)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

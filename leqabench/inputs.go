package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"repro/internal/circuit"
	"repro/leqa"
	"repro/leqa/client"
)

// newRNG derives an independent, reproducible stream from the workload
// seed; stream separates the uses of one seed (setup, order, clients).
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// netlist is one generated, FT-lowered circuit with its two encodings.
type netlist struct {
	name string
	ops  int
	qc   []byte
	qcb  []byte
}

// makeNetlist generates name, lowers it to the FT gate set and encodes it
// as .qc text and .qcb binary.
func makeNetlist(name string) (netlist, *leqa.Circuit, error) {
	c, err := leqa.GenerateFT(name)
	if err != nil {
		return netlist{}, nil, err
	}
	var qc, qcb bytes.Buffer
	if err := circuit.WriteQC(&qc, c); err != nil {
		return netlist{}, nil, fmt.Errorf("encode %s as .qc: %w", name, err)
	}
	if err := leqa.WriteQCB(&qcb, c); err != nil {
		return netlist{}, nil, fmt.Errorf("encode %s as .qcb: %w", name, err)
	}
	return netlist{name: name, ops: c.NumGates(), qc: qc.Bytes(), qcb: qcb.Bytes()}, c, nil
}

// paramSet is a parameter column with the wire form a leqad client sends
// for it.
type paramSet struct {
	label string
	p     leqa.Params
	spec  *client.ParamSpec
}

func newParamSet(label string, w, h, nc int, v float64) paramSet {
	p := leqa.DefaultParams()
	p.Grid = leqa.Grid{Width: w, Height: h}
	p.ChannelCapacity = nc
	p.QubitSpeed = v
	return paramSet{label: label, p: p, spec: &client.ParamSpec{
		Grid:            fmt.Sprintf("%dx%d", w, h),
		ChannelCapacity: &nc,
		QubitSpeed:      &v,
	}}
}

// defaultParams is the paper's Table 1 column.
func defaultParams() paramSet {
	d := leqa.DefaultParams()
	return newParamSet("default", d.Grid.Width, d.Grid.Height, d.ChannelCapacity, d.QubitSpeed)
}

// paramPool is service-mix's fixed read pool: its cells repeat, so the
// server's result memo answers them, and their expected values are
// committed.
func paramPool() []paramSet {
	return []paramSet{
		defaultParams(),
		newParamSet("g40nc3", 40, 40, 3, 0.001),
		newParamSet("g80v2", 80, 80, 5, 0.002),
	}
}

// drawParams draws a fresh design-space column: fabric size, channel
// capacity and qubit speed vary, as in the paper's §4.2 sweeps. The speed
// is continuous, so every drawn column is a new zone-model key.
func drawParams(rng *rand.Rand) paramSet {
	w, h := 20+rng.IntN(101), 20+rng.IntN(101)
	nc := 1 + rng.IntN(10)
	v := 0.0005 + 0.0015*rng.Float64()
	return newParamSet(fmt.Sprintf("%dx%d/nc%d/v%.6g", w, h, nc, v), w, h, nc, v)
}

func drawColumns(rng *rand.Rand, k int) []paramSet {
	cols := make([]paramSet, k)
	for i := range cols {
		cols[i] = drawParams(rng)
	}
	return cols
}

func paramsOf(cols []paramSet) []leqa.Params {
	ps := make([]leqa.Params, len(cols))
	for i, c := range cols {
		ps[i] = c.p
	}
	return ps
}

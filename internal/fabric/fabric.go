// Package fabric models the tiled quantum architecture (TQA) of LEQA §2: a
// 2-D grid of Universal Logic Blocks (ULBs) separated by routing channels,
// plus the physical parameter set of Table 1 (FT gate delays for a Steane
// [[7,1,3]]-coded ion-trap fabric, channel capacity Nc, qubit speed 𝓋,
// fabric dimensions and the per-hop move time T_move).
//
// All times are in microseconds.
package fabric

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// Coord is a ULB position on the fabric grid; X ∈ [0,Width), Y ∈ [0,Height).
type Coord struct{ X, Y int }

// ManhattanDist returns the hop count of the shortest rectilinear route.
func (c Coord) ManhattanDist(o Coord) int {
	dx := c.X - o.X
	if dx < 0 {
		dx = -dx
	}
	dy := c.Y - o.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Grid is the ULB array geometry.
type Grid struct {
	Width  int // a: number of ULB columns
	Height int // b: number of ULB rows
}

// NewGrid validates and constructs a fabric grid.
func NewGrid(width, height int) (Grid, error) {
	if width < 1 || height < 1 {
		return Grid{}, fmt.Errorf("fabric: grid %dx%d must be at least 1x1", width, height)
	}
	return Grid{Width: width, Height: height}, nil
}

// Area returns A = a·b, the ULB count.
func (g Grid) Area() int { return g.Width * g.Height }

// Contains reports whether the coordinate lies on the grid.
func (g Grid) Contains(c Coord) bool {
	return c.X >= 0 && c.X < g.Width && c.Y >= 0 && c.Y < g.Height
}

// Index linearizes a coordinate (row-major).
func (g Grid) Index(c Coord) int { return c.Y*g.Width + c.X }

// CoordAt inverts Index.
func (g Grid) CoordAt(i int) Coord { return Coord{X: i % g.Width, Y: i / g.Width} }

// Center returns the middle ULB.
func (g Grid) Center() Coord { return Coord{X: g.Width / 2, Y: g.Height / 2} }

// Clamp projects a coordinate onto the grid.
func (g Grid) Clamp(c Coord) Coord {
	if c.X < 0 {
		c.X = 0
	}
	if c.X >= g.Width {
		c.X = g.Width - 1
	}
	if c.Y < 0 {
		c.Y = 0
	}
	if c.Y >= g.Height {
		c.Y = g.Height - 1
	}
	return c
}

// SpiralOrder enumerates grid coordinates in a clockwise spiral starting at
// the center — the placement order QSPR uses so that early (strongly
// interacting) qubits land near the middle of the fabric.
func (g Grid) SpiralOrder() []Coord {
	out := make([]Coord, 0, g.Area())
	c := g.Center()
	if g.Contains(c) {
		out = append(out, c)
	}
	// Walk expanding arms: right 1, down 1, left 2, up 2, right 3, ...
	x, y := c.X, c.Y
	step := 1
	dirs := []Coord{{1, 0}, {0, 1}, {-1, 0}, {0, -1}}
	// Bound the walk: the spiral covers the grid within a square of side
	// 2·max(Width,Height) around the center.
	for d := 0; len(out) < g.Area(); d = (d + 1) % 4 {
		for i := 0; i < step; i++ {
			x += dirs[d].X
			y += dirs[d].Y
			p := Coord{X: x, Y: y}
			if g.Contains(p) {
				out = append(out, p)
				if len(out) == g.Area() {
					return out
				}
			}
		}
		if d == 1 || d == 3 {
			step++
		}
	}
	return out
}

// Params bundles every physical parameter LEQA and QSPR consume (Table 1).
type Params struct {
	// GateDelay maps each one-qubit FT gate type to its ULB execution
	// delay d_g in µs.
	GateDelay map[circuit.GateType]float64
	// DCNOT is the CNOT execution delay d_CNOT in µs.
	DCNOT float64
	// ChannelCapacity is Nc, the routing-channel capacity in qubits.
	ChannelCapacity int
	// QubitSpeed is 𝓋: ULB side lengths per µs of a logical qubit moving
	// through routing channels. Also LEQA's mapper calibration knob.
	QubitSpeed float64
	// Grid is the fabric geometry (a × b ULBs).
	Grid Grid
	// TMove is the time for a logical qubit to move between neighboring
	// ULBs/channels/crossbars, in µs.
	TMove float64
}

// Default returns the paper's Table 1 parameter set: Steane [[7,1,3]]
// ion-trap delays, Nc = 5, 𝓋 = 0.001, A = 60×60, T_move = 100µs.
func Default() Params {
	return Params{
		GateDelay: map[circuit.GateType]float64{
			circuit.H:   5440,
			circuit.T:   10940,
			circuit.Tdg: 10940,
			circuit.X:   5240,
			circuit.Y:   5240,
			circuit.Z:   5240,
			// S/S† are transversal like the Paulis under the Steane code;
			// Table 1 lists them with the phase-gate row (d_S within the
			// "others" group). We use the Pauli-group delay.
			circuit.S:   5240,
			circuit.Sdg: 5240,
		},
		DCNOT:           4930,
		ChannelCapacity: 5,
		QubitSpeed:      0.001,
		Grid:            Grid{Width: 60, Height: 60},
		TMove:           100,
	}
}

// Validate checks internal consistency. Every delay, speed and move time
// must be positive and finite: NaN fails every ordered comparison, so a
// plain "<= 0" test would let it (and ±Inf) through into the model.
func (p Params) Validate() error {
	if !positiveFinite(p.DCNOT) {
		return fmt.Errorf("fabric: d_CNOT %.6g must be positive and finite", p.DCNOT)
	}
	if p.ChannelCapacity < 1 {
		return fmt.Errorf("fabric: channel capacity %d < 1", p.ChannelCapacity)
	}
	if !positiveFinite(p.QubitSpeed) {
		return fmt.Errorf("fabric: qubit speed %.6g must be positive and finite", p.QubitSpeed)
	}
	if !positiveFinite(p.TMove) {
		return fmt.Errorf("fabric: T_move %.6g must be positive and finite", p.TMove)
	}
	if _, err := NewGrid(p.Grid.Width, p.Grid.Height); err != nil {
		return err
	}
	for t, d := range p.GateDelay {
		if !t.IsOneQubit() {
			return fmt.Errorf("fabric: gate delay declared for non-one-qubit type %s", t)
		}
		if !positiveFinite(d) {
			return fmt.Errorf("fabric: delay for %s (%.6g) must be positive and finite", t, d)
		}
	}
	return nil
}

func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// DelayOf returns the ULB execution delay of an FT gate type.
func (p Params) DelayOf(t circuit.GateType) (float64, error) {
	if t == circuit.CNOT {
		return p.DCNOT, nil
	}
	if d, ok := p.GateDelay[t]; ok {
		return d, nil
	}
	return 0, fmt.Errorf("fabric: no delay configured for gate type %s", t)
}

// OneQubitRouting returns L_g^avg = 2·T_move, the paper's empirical average
// routing latency for one-qubit operations (§3).
func (p Params) OneQubitRouting() float64 { return 2 * p.TMove }

// Clone deep-copies the parameter set so callers can tweak without aliasing.
func (p Params) Clone() Params {
	out := p
	out.GateDelay = make(map[circuit.GateType]float64, len(p.GateDelay))
	for k, v := range p.GateDelay {
		out.GateDelay[k] = v
	}
	return out
}

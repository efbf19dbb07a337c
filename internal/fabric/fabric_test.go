package fabric

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
)

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 5); err == nil {
		t.Error("want error for zero width")
	}
	if _, err := NewGrid(5, -1); err == nil {
		t.Error("want error for negative height")
	}
	g, err := NewGrid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Area() != 12 {
		t.Errorf("Area = %d", g.Area())
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := Grid{Width: 7, Height: 5}
	for i := 0; i < g.Area(); i++ {
		c := g.CoordAt(i)
		if !g.Contains(c) {
			t.Fatalf("CoordAt(%d) = %v outside grid", i, c)
		}
		if g.Index(c) != i {
			t.Fatalf("Index(CoordAt(%d)) = %d", i, g.Index(c))
		}
	}
}

func TestContains(t *testing.T) {
	g := Grid{Width: 3, Height: 3}
	if !g.Contains(Coord{0, 0}) || !g.Contains(Coord{2, 2}) {
		t.Error("corners should be contained")
	}
	for _, c := range []Coord{{-1, 0}, {0, -1}, {3, 0}, {0, 3}} {
		if g.Contains(c) {
			t.Errorf("%v should be outside", c)
		}
	}
}

func TestClamp(t *testing.T) {
	g := Grid{Width: 4, Height: 4}
	cases := map[Coord]Coord{
		{-5, 2}: {0, 2},
		{9, 9}:  {3, 3},
		{2, -1}: {2, 0},
		{1, 1}:  {1, 1},
	}
	for in, want := range cases {
		if got := g.Clamp(in); got != want {
			t.Errorf("Clamp(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestManhattanDist(t *testing.T) {
	a := Coord{1, 2}
	b := Coord{4, 0}
	if d := a.ManhattanDist(b); d != 5 {
		t.Errorf("dist = %d, want 5", d)
	}
	if d := a.ManhattanDist(a); d != 0 {
		t.Errorf("self dist = %d", d)
	}
	if a.ManhattanDist(b) != b.ManhattanDist(a) {
		t.Error("distance not symmetric")
	}
}

func TestSpiralOrderCoversGridOnce(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {3, 3}, {4, 2}, {2, 7}, {5, 5}, {60, 60}} {
		g := Grid{Width: dims[0], Height: dims[1]}
		order := g.SpiralOrder()
		if len(order) != g.Area() {
			t.Fatalf("%dx%d: spiral covers %d of %d", dims[0], dims[1], len(order), g.Area())
		}
		seen := make(map[Coord]bool, len(order))
		for _, c := range order {
			if !g.Contains(c) {
				t.Fatalf("%v outside grid", c)
			}
			if seen[c] {
				t.Fatalf("%v visited twice", c)
			}
			seen[c] = true
		}
		if order[0] != g.Center() {
			t.Errorf("spiral starts at %v, want center %v", order[0], g.Center())
		}
	}
}

func TestSpiralOrderProperty(t *testing.T) {
	f := func(w, h uint8) bool {
		gw, gh := int(w%12)+1, int(h%12)+1
		g := Grid{Width: gw, Height: gh}
		return len(g.SpiralOrder()) == g.Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultParamsTable1(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	checks := map[circuit.GateType]float64{
		circuit.H:   5440,
		circuit.T:   10940,
		circuit.Tdg: 10940,
		circuit.X:   5240,
		circuit.Y:   5240,
		circuit.Z:   5240,
	}
	for gt, want := range checks {
		d, err := p.DelayOf(gt)
		if err != nil {
			t.Errorf("%s: %v", gt, err)
			continue
		}
		if d != want {
			t.Errorf("d_%s = %v, want %v", gt, d, want)
		}
	}
	if d, _ := p.DelayOf(circuit.CNOT); d != 4930 {
		t.Errorf("d_CNOT = %v, want 4930", d)
	}
	if p.ChannelCapacity != 5 {
		t.Errorf("Nc = %d, want 5", p.ChannelCapacity)
	}
	if p.QubitSpeed != 0.001 {
		t.Errorf("v = %v, want 0.001", p.QubitSpeed)
	}
	if p.Grid.Area() != 3600 || p.Grid.Width != 60 {
		t.Errorf("grid = %dx%d, want 60x60", p.Grid.Width, p.Grid.Height)
	}
	if p.TMove != 100 {
		t.Errorf("T_move = %v, want 100", p.TMove)
	}
	if p.OneQubitRouting() != 200 {
		t.Errorf("L_g = %v, want 2·T_move = 200", p.OneQubitRouting())
	}
}

func TestParamsValidateRejects(t *testing.T) {
	base := Default()
	mutations := []func(*Params){
		func(p *Params) { p.DCNOT = 0 },
		func(p *Params) { p.ChannelCapacity = 0 },
		func(p *Params) { p.QubitSpeed = 0 },
		func(p *Params) { p.TMove = -1 },
		func(p *Params) { p.Grid = Grid{Width: 0, Height: 5} },
		func(p *Params) { p.GateDelay[circuit.H] = -5 },
		func(p *Params) { p.GateDelay[circuit.CNOT] = 100 }, // not one-qubit
	}
	for i, mutate := range mutations {
		p := base.Clone()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: want validation error", i)
		}
	}
}

// TestParamsValidateNonFinite pins the non-finite rejections: NaN fails
// every ordered comparison and +Inf is "positive", so both slipped past a
// plain "<= 0" check into estimates that could not be serialized.
func TestParamsValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"dcnot NaN", func(p *Params) { p.DCNOT = nan }},
		{"dcnot +Inf", func(p *Params) { p.DCNOT = inf }},
		{"dcnot -Inf", func(p *Params) { p.DCNOT = -inf }},
		{"speed NaN", func(p *Params) { p.QubitSpeed = nan }},
		{"speed +Inf", func(p *Params) { p.QubitSpeed = inf }},
		{"tmove NaN", func(p *Params) { p.TMove = nan }},
		{"tmove +Inf", func(p *Params) { p.TMove = inf }},
		{"tmove -Inf", func(p *Params) { p.TMove = -inf }},
		{"delay NaN", func(p *Params) { p.GateDelay[circuit.T] = nan }},
		{"delay +Inf", func(p *Params) { p.GateDelay[circuit.H] = inf }},
	}
	for _, tc := range cases {
		p := Default().Clone()
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: want validation error", tc.name)
		}
	}
	// Extreme but finite values stay valid; the estimator reports any
	// overflow they cause.
	p := Default()
	p.QubitSpeed = 1e-320
	p.TMove = math.MaxFloat64
	if err := p.Validate(); err != nil {
		t.Errorf("finite extremes rejected: %v", err)
	}
}

func TestDelayOfUnknown(t *testing.T) {
	p := Default()
	delete(p.GateDelay, circuit.Y)
	if _, err := p.DelayOf(circuit.Y); err == nil {
		t.Error("want error for unconfigured gate")
	}
}

func TestCloneIndependent(t *testing.T) {
	p := Default()
	q := p.Clone()
	q.GateDelay[circuit.H] = 1
	if p.GateDelay[circuit.H] == 1 {
		t.Error("Clone shares the delay map")
	}
}

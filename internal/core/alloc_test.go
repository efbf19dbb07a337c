package core

import (
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchgen"
	"repro/internal/fabric"
)

// TestEstimateArenaWarmAllocs pins the steady-state allocation budget of a
// warm arena estimate — the leqad worker path — on a circuit above 65,536
// gates at GOMAXPROCS=2. testing.AllocsPerRun would force GOMAXPROCS=1 and
// hide any allocation made only on a multi-core schedule, so the count
// comes from runtime.MemStats.Mallocs deltas instead.
func TestEstimateArenaWarmAllocs(t *testing.T) {
	const (
		name      = "hwb100ps"
		maxAllocs = 6
		calls     = 5
	)
	c, err := benchgen.GenerateFT(name)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() <= 1<<16 {
		t.Fatalf("%s has %d gates; the test needs more than 65,536", name, c.NumGates())
	}
	e, err := New(fabric.Default(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ar := analysis.NewArena()
	if _, err := e.EstimateArena(c, ar); err != nil {
		t.Fatal(err) // warm the arena and the zone-model memo
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := e.EstimateArena(c, ar); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.Mallocs - before.Mallocs) / calls; got > maxAllocs {
		t.Errorf("warm EstimateArena on %s: %d allocs/call at GOMAXPROCS=2, want ≤ %d", name, got, maxAllocs)
	}
}

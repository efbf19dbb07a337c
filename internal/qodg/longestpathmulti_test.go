package qodg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
)

// columnWeights builds K distinct weight vectors for g, each with the
// estimator's two-value shape (CNOTs one latency, everything else another)
// scaled per column so the K critical paths genuinely differ. The values
// still collide across path prefixes, keeping the tie rule exercised.
func columnWeights(g *Graph, k int) []Weights {
	ws := make([]Weights, k)
	for c := 0; c < k; c++ {
		scale := 1 + float64(c)*0.25
		ws[c] = g.NewWeights(func(gt circuit.Gate) float64 {
			if gt.Type == circuit.CNOT {
				return 1000.5 * scale
			}
			return 100.25 * scale
		})
	}
	return ws
}

// assertMultiSweepStateEqual recomputes each column's dist/from with the
// serial single-column oracle and compares it bitwise against the scratch's
// SoA slabs — strictly stronger than comparing recovered paths.
func assertMultiSweepStateEqual(t *testing.T, label string, g *Graph, ws []Weights, s *PathScratch) {
	t.Helper()
	n := len(g.Nodes)
	k := len(ws)
	dist := make([]float64, n)
	from := make([]NodeID, n)
	for c, w := range ws {
		g.relaxSerial(w, dist, from)
		for v := 0; v < n; v++ {
			if math.Float64bits(dist[v]) != math.Float64bits(s.distM[v*k+c]) {
				t.Fatalf("%s: col %d: dist[%d] = %v, serial %v", label, c, v, s.distM[v*k+c], dist[v])
			}
			if from[v] != s.fromM[v*k+c] {
				t.Fatalf("%s: col %d: from[%d] = %d, serial %d", label, c, v, s.fromM[v*k+c], from[v])
			}
		}
	}
}

// assertScratchStateEqual checks the relaxation state a LongestPathMulti
// call left in s: one column runs the single-column sweep, wider sets the
// strided kernel.
func assertScratchStateEqual(t *testing.T, label string, g *Graph, ws []Weights, s *PathScratch) {
	t.Helper()
	if len(ws) == 1 {
		assertSweepStateEqual(t, label, g, ws[0], s)
		return
	}
	assertMultiSweepStateEqual(t, label, g, ws, s)
}

// assertMultiMatchesSerial checks every column of a multi-sweep result
// against the single-column serial oracle.
func assertMultiMatchesSerial(t *testing.T, label string, g *Graph, ws []Weights, got []CriticalPath) {
	t.Helper()
	if len(got) != len(ws) {
		t.Fatalf("%s: %d paths for %d columns", label, len(got), len(ws))
	}
	for c, w := range ws {
		want, err := g.LongestPathSerial(w)
		if err != nil {
			t.Fatal(err)
		}
		assertPathsBitwiseEqual(t, label, got[c], want)
	}
}

// TestLongestPathMultiMatchesSerialOnPaperBenchmarks is the batched kernel's
// contract: on every paper benchmark, each column of the multi-weight sweep
// must reproduce the per-column serial oracle bitwise (dist, from, path
// nodes, length, per-type counts), with one scratch shared across all
// circuits and column counts so stale slab state cannot leak through.
func TestLongestPathMultiMatchesSerialOnPaperBenchmarks(t *testing.T) {
	shared := new(PathScratch)
	for _, name := range paperSuite(t) {
		c, err := benchgen.GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3, 8} {
			ws := columnWeights(g, k)
			got, err := g.LongestPathMulti(ws, shared)
			if err != nil {
				t.Fatal(err)
			}
			assertMultiMatchesSerial(t, name, g, ws, got)
			assertScratchStateEqual(t, name, g, ws, shared)
		}
	}
}

// TestLongestPathMultiMatchesSerialOnRandomDAGs fuzzes the multi-column
// equivalence over randomized layered DAGs with tie-heavy weights: values
// drawn from a tiny set per column, so exact max-ties are common and any
// deviation from the lowest-predecessor tie rule in the strided kernels
// shows up immediately.
func TestLongestPathMultiMatchesSerialOnRandomDAGs(t *testing.T) {
	shared := new(PathScratch)
	shapes := []struct{ qubits, gates int }{
		{3, 40},      // tiny, near-serial
		{200, 3000},  // wide and shallow
		{16, 5000},   // deep and narrow
		{512, 20000}, // wide, spans many chunks at small grains
	}
	tieValues := []float64{1, 1, 2, 2.5} // duplicates make exact ties likely
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := shapes[int(seed)%len(shapes)]
		c := randomCircuit(rng, shape.qubits, shape.gates)
		g, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + int(seed)%4
		ws := make([]Weights, k)
		for col := range ws {
			ws[col] = g.NewWeights(func(gt circuit.Gate) float64 {
				return tieValues[rng.Intn(len(tieValues))]
			})
		}
		got, err := g.LongestPathMulti(ws, shared)
		if err != nil {
			t.Fatal(err)
		}
		assertMultiMatchesSerial(t, c.Name, g, ws, got)
		assertScratchStateEqual(t, c.Name, g, ws, shared)
		serial, err := g.LongestPathMultiSerial(ws)
		if err != nil {
			t.Fatal(err)
		}
		assertMultiMatchesSerial(t, c.Name+"/serial", g, ws, serial)
	}
}

// TestLongestPathMultiValidation covers the error and edge paths of every
// multi entry point: a short column anywhere rejects the whole call, and an
// empty column set is a no-op.
func TestLongestPathMultiValidation(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(7)), 4, 10)
	g, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	good := coreWeights(g)
	bad := make(Weights, g.NumNodes()-1)
	for _, ws := range [][]Weights{{bad}, {good, bad}} {
		if _, err := g.LongestPathMulti(ws, nil); err == nil {
			t.Error("LongestPathMulti accepted a short weight column")
		}
		if _, err := g.LongestPathMultiSerial(ws); err == nil {
			t.Error("LongestPathMultiSerial accepted a short weight column")
		}
	}
	for _, fn := range []func() ([]CriticalPath, error){
		func() ([]CriticalPath, error) { return g.LongestPathMulti(nil, nil) },
		func() ([]CriticalPath, error) { return g.LongestPathMultiSerial(nil) },
	} {
		got, err := fn()
		if err != nil || got != nil {
			t.Errorf("empty column set: got %v, %v; want nil, nil", got, err)
		}
	}
}

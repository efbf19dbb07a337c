package qodg

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
)

// assertPathsBitwiseEqual compares two critical paths with no float
// tolerance: every sweep must reproduce the serial oracle byte for byte.
func assertPathsBitwiseEqual(t *testing.T, label string, got, want CriticalPath) {
	t.Helper()
	if math.Float64bits(got.Length) != math.Float64bits(want.Length) {
		t.Fatalf("%s: length %v (bits %x), want %v (bits %x)",
			label, got.Length, math.Float64bits(got.Length), want.Length, math.Float64bits(want.Length))
	}
	if !slices.Equal(got.Nodes, want.Nodes) {
		t.Fatalf("%s: path nodes diverge: %d vs %d nodes (first few: %v vs %v)",
			label, len(got.Nodes), len(want.Nodes), head(got.Nodes), head(want.Nodes))
	}
	if !maps.Equal(got.CountByType, want.CountByType) {
		t.Fatalf("%s: CountByType %v, want %v", label, got.CountByType, want.CountByType)
	}
}

func head(n []NodeID) []NodeID {
	if len(n) > 8 {
		return n[:8]
	}
	return n
}

// assertSweepStateEqual compares the full dist/from relaxation state, which
// is strictly stronger than comparing recovered paths.
func assertSweepStateEqual(t *testing.T, label string, g *Graph, w Weights, s *PathScratch) {
	t.Helper()
	n := len(g.Nodes)
	dist := make([]float64, n)
	from := make([]NodeID, n)
	g.relaxSerial(w, dist, from)
	for i := 0; i < n; i++ {
		if math.Float64bits(dist[i]) != math.Float64bits(s.dist[i]) {
			t.Fatalf("%s: dist[%d] = %v, serial %v", label, i, s.dist[i], dist[i])
		}
		if from[i] != s.from[i] {
			t.Fatalf("%s: from[%d] = %d, serial %d", label, i, s.from[i], from[i])
		}
	}
}

// paperSuite returns the benchmarks the equivalence test covers: all 18
// paper circuits normally, the sub-100k-operation subset under -short.
func paperSuite(t testing.TB) []string {
	t.Helper()
	if !testing.Short() {
		return benchgen.Names()
	}
	var out []string
	for _, name := range benchgen.Names() {
		if benchgen.Paper[name].Operations < 100000 {
			out = append(out, name)
		}
	}
	return out
}

// coreWeights mimics the estimator's re-weighting: CNOTs get one latency,
// everything else another — both chosen so different path prefixes can tie
// exactly and the lowest-predecessor tie rule is actually exercised.
func coreWeights(g *Graph) Weights {
	return g.NewWeights(func(gt circuit.Gate) float64 {
		if gt.Type == circuit.CNOT {
			return 1000.5
		}
		return 100.25
	})
}

// randomCircuit builds a synthetic circuit with rng-driven structure: some
// are wide and shallow (many qubits, wide levels), some deep and narrow.
func randomCircuit(rng *rand.Rand, qubits, gates int) *circuit.Circuit {
	c := circuit.New("rand", qubits)
	oneQ := []circuit.GateType{circuit.H, circuit.T, circuit.Tdg, circuit.X}
	for i := 0; i < gates; i++ {
		if rng.Intn(3) == 0 {
			c.Append(circuit.Gate{Type: oneQ[rng.Intn(len(oneQ))], Targets: []int{rng.Intn(qubits)}})
			continue
		}
		a := rng.Intn(qubits)
		b := rng.Intn(qubits)
		for b == a {
			b = rng.Intn(qubits)
		}
		c.Append(circuit.Gate{Type: circuit.CNOT, Controls: []int{a}, Targets: []int{b}})
	}
	return c
}

// TestLongestPathWeightLengthMismatch covers the error path of every
// entry point.
func TestLongestPathWeightLengthMismatch(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(7)), 4, 10)
	g, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	bad := make(Weights, g.NumNodes()-1)
	if _, err := g.LongestPath(bad); err == nil {
		t.Error("LongestPath accepted a short weight vector")
	}
	if _, err := g.LongestPathSerial(bad); err == nil {
		t.Error("LongestPathSerial accepted a short weight vector")
	}
}

package analysis

import (
	"strings"
	"testing"

	"repro/internal/circuit"
)

// withMaxGates lowers the builders' gate bound for one test, so the int32
// node-ID guard is reachable without a 2^31-gate circuit.
func withMaxGates(t *testing.T, n int) {
	t.Helper()
	old := maxGates
	maxGates = n
	t.Cleanup(func() { maxGates = old })
}

func chain(n int) *circuit.Circuit {
	c := circuit.New("chain", 2)
	for i := 0; i < n; i++ {
		c.Append(circuit.NewCNOT(0, 1))
	}
	return c
}

func wantLimit(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "graph limit") {
		t.Errorf("%s: got %v, want a graph-limit error", what, err)
	}
}

// TestGateLimit: every builder that mints node IDs — the materialized pass
// (fresh and arena), the streamed pass (fresh and arena) and the Appender —
// accepts exactly maxGates operations and refuses one more.
func TestGateLimit(t *testing.T) {
	withMaxGates(t, 5)
	ar := NewArena()
	builders := map[string]func(*circuit.Circuit) (*Analysis, error){
		"Analyze":             Analyze,
		"Arena.Analyze":       ar.Analyze,
		"AnalyzeStream":       func(c *circuit.Circuit) (*Analysis, error) { return AnalyzeStream(NewCircuitStream(c)) },
		"Arena.AnalyzeStream": func(c *circuit.Circuit) (*Analysis, error) { return ar.AnalyzeStream(NewCircuitStream(c)) },
	}
	for name, build := range builders {
		if a, err := build(chain(5)); err != nil || a.Operations != 5 {
			t.Errorf("%s at the limit: err=%v", name, err)
		}
		_, err := build(chain(6))
		wantLimit(t, name, err)
	}

	a, err := Analyze(chain(4))
	if err != nil {
		t.Fatal(err)
	}
	ap, err := NewAppender(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Append(circuit.NewCNOT(0, 1)); err != nil {
		t.Fatalf("Append to the limit: %v", err)
	}
	wantLimit(t, "Appender.Append", ap.Append(circuit.NewCNOT(1, 0)))
	if ap.NumGates() != 5 {
		t.Errorf("refused gate was absorbed: NumGates = %d, want 5", ap.NumGates())
	}
}

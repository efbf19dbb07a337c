package leqa

import (
	"context"
	"errors"
	"testing"

	"repro/internal/circuit"
)

// sweepSuite picks the benchmark set: every built-in circuit normally, a
// small subset under -short.
func sweepSuite(t *testing.T) []string {
	t.Helper()
	if testing.Short() {
		return []string{"8bitadder", "gf2^16mult", "ham15"}
	}
	return Benchmarks()
}

// TestSweepMatchesSequential is the batch-engine correctness anchor for a
// single parameter column: the concurrent sweep over the built-in
// benchmarks must return estimates bitwise-identical to sequential
// Estimate calls.
func TestSweepMatchesSequential(t *testing.T) {
	names := sweepSuite(t)
	p := DefaultParams()

	circuits := make([]*Circuit, len(names))
	sequential := make([]*EstimateResult, len(names))
	for i, name := range names {
		c, err := GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits[i] = c
		sequential[i], err = Estimate(c, p)
		if err != nil {
			t.Fatal(err)
		}
	}

	cells, err := SweepGrid(context.Background(), circuits, []Params{p})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(names) {
		t.Fatalf("got %d cells, want %d", len(cells), len(names))
	}
	for i, cell := range cells {
		if cell.Err != nil {
			t.Fatalf("%s: %v", names[i], cell.Err)
		}
		if cell.CircuitIndex != i || cell.Name != names[i] {
			t.Errorf("cell %d is %q (index %d), want %q", i, cell.Name, cell.CircuitIndex, names[i])
		}
		seq := sequential[i]
		if cell.Result.EstimatedLatency != seq.EstimatedLatency {
			t.Errorf("%s: sweep latency %v != sequential %v",
				names[i], cell.Result.EstimatedLatency, seq.EstimatedLatency)
		}
		if cell.Result.LCNOTAvg != seq.LCNOTAvg {
			t.Errorf("%s: sweep L_CNOT %v != sequential %v",
				names[i], cell.Result.LCNOTAvg, seq.LCNOTAvg)
		}
		if cell.Result.DUncong != seq.DUncong {
			t.Errorf("%s: sweep d_uncong %v != sequential %v",
				names[i], cell.Result.DUncong, seq.DUncong)
		}
	}
}

func TestSweepPerCircuitErrors(t *testing.T) {
	// One bad circuit must not sink the batch: its slot carries the error,
	// the others succeed.
	good, err := GenerateFT("8bitadder")
	if err != nil {
		t.Fatal(err)
	}
	bad := circuit.New("raw-toffoli", 3)
	bad.Append(circuit.NewToffoli(0, 1, 2))

	cells, err := SweepGrid(context.Background(), []*Circuit{good, bad, good}, []Params{DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Err != nil || cells[2].Err != nil {
		t.Errorf("good circuits failed: %v / %v", cells[0].Err, cells[2].Err)
	}
	if cells[1].Err == nil {
		t.Error("non-FT circuit did not report an error")
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts
	c, err := GenerateFT("8bitadder")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := SweepGrid(ctx, []*Circuit{c, c, c}, []Params{DefaultParams()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3 (every slot must be accounted for)", len(cells))
	}
	for i, cell := range cells {
		if cell.CircuitIndex != i || cell.Name != c.Name {
			t.Errorf("slot %d: index %d name %q", i, cell.CircuitIndex, cell.Name)
		}
		// The context was cancelled before the sweep, so no slot can have
		// been estimated: each must carry the cancellation error.
		if !errors.Is(cell.Err, context.Canceled) {
			t.Errorf("slot %d: err = %v, want context.Canceled", i, cell.Err)
		}
		if cell.Result != nil {
			t.Errorf("slot %d carries a result despite pre-cancelled context", i)
		}
	}
}

func TestSweepEmptyInput(t *testing.T) {
	cells, err := SweepGrid(context.Background(), nil, []Params{DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Errorf("got %d cells for empty input", len(cells))
	}
}

func TestNewRunnerValidatesParams(t *testing.T) {
	p := DefaultParams()
	p.TMove = 0
	if _, err := NewRunner(p, EstimateOptions{}, 2); err == nil {
		t.Error("want validation error")
	}
}

func TestRunnerSingleWorkerDeterministic(t *testing.T) {
	// A 1-worker pool is plain sequential execution through the same code
	// path; two runs must agree bitwise.
	r, err := NewRunner(DefaultParams(), EstimateOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var circuits []*Circuit
	for _, name := range []string{"8bitadder", "ham15"} {
		c, err := GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	params := []Params{DefaultParams()}
	a, err := r.SweepGrid(context.Background(), circuits, params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.SweepGrid(context.Background(), circuits, params)
	if err != nil {
		t.Fatal(err)
	}
	for i := range circuits {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatal(a[i].Err, b[i].Err)
		}
		if a[i].Result.EstimatedLatency != b[i].Result.EstimatedLatency {
			t.Errorf("%s: runs disagree: %v vs %v",
				a[i].Name, a[i].Result.EstimatedLatency, b[i].Result.EstimatedLatency)
		}
	}
}

package leqa_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/leqa"
)

func streamTestCircuits(t *testing.T, names ...string) []*leqa.Circuit {
	t.Helper()
	circuits := make([]*leqa.Circuit, len(names))
	for i, name := range names {
		c, err := leqa.GenerateFT(name)
		if err != nil {
			t.Fatalf("generating %s: %v", name, err)
		}
		circuits[i] = c
	}
	return circuits
}

// circuitSources wraps in-memory circuits as engine sources.
func circuitSources(circuits []*leqa.Circuit) []leqa.Source {
	sources := make([]leqa.Source, len(circuits))
	for i, c := range circuits {
		sources[i] = leqa.CircuitSource(c)
	}
	return sources
}

func streamTestParams() []leqa.Params {
	small := leqa.DefaultParams()
	small.Grid = leqa.Grid{Width: 20, Height: 20}
	large := leqa.DefaultParams()
	large.Grid = leqa.Grid{Width: 35, Height: 35}
	large.ChannelCapacity = 3
	return []leqa.Params{small, large}
}

// TestSweepGridStreamMatchesSweepGrid pins the contract the HTTP service
// relies on: the engine's streamed cells are bitwise identical to the
// collected batch, and arrive in circuit-major input order.
func TestSweepGridStreamMatchesSweepGrid(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder", "mod16adder")
	paramSets := streamTestParams()
	r, err := leqa.NewRunner(paramSets[0], leqa.EstimateOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}

	want, err := r.SweepGrid(context.Background(), circuits, paramSets)
	if err != nil {
		t.Fatal(err)
	}

	var got []leqa.GridCell
	err = r.SweepGridSourcesStream(context.Background(), circuitSources(circuits), paramSets, func(cell leqa.GridCell) error {
		got = append(got, cell)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(circuits)*len(paramSets) {
		t.Fatalf("streamed %d cells, want %d", len(got), len(circuits)*len(paramSets))
	}
	for k, cell := range got {
		i, j := k/len(paramSets), k%len(paramSets)
		if cell.CircuitIndex != i || cell.ParamsIndex != j {
			t.Fatalf("cell %d is (%d,%d), want (%d,%d): stream must keep circuit-major input order",
				k, cell.CircuitIndex, cell.ParamsIndex, i, j)
		}
		if !reflect.DeepEqual(cell, want[k]) {
			t.Fatalf("cell %d differs between stream and batch:\nstream: %+v\nbatch:  %+v", k, cell, want[k])
		}
	}
}

func TestSweepGridStreamEmitErrorStopsStream(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder", "mod16adder")
	paramSets := streamTestParams()
	r, err := leqa.NewRunner(paramSets[0], leqa.EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("client went away")
	emitted := 0
	err = r.SweepGridSourcesStream(context.Background(), circuitSources(circuits), paramSets, func(leqa.GridCell) error {
		emitted++
		if emitted == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if emitted != 2 {
		t.Fatalf("emit ran %d times after failing on the 2nd row", emitted)
	}
}

func TestSweepGridStreamCancelledContext(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder")
	paramSets := streamTestParams()
	r, err := leqa.NewRunner(paramSets[0], leqa.EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var got []leqa.GridCell
	err = r.SweepGridSourcesStream(ctx, circuitSources(circuits), paramSets, func(cell leqa.GridCell) error {
		got = append(got, cell)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every slot is still accounted for; the cells carry the cancellation.
	if len(got) != len(circuits)*len(paramSets) {
		t.Fatalf("streamed %d cells, want %d error rows", len(got), len(circuits)*len(paramSets))
	}
	for _, cell := range got {
		if !errors.Is(cell.Err, context.Canceled) {
			t.Fatalf("cell (%d,%d) err = %v, want context.Canceled", cell.CircuitIndex, cell.ParamsIndex, cell.Err)
		}
	}
}

func TestSweepGridStreamRejectsBadParams(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7")
	bad := leqa.DefaultParams()
	bad.Grid = leqa.Grid{Width: 0, Height: 0}
	r, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = r.SweepGridSourcesStream(context.Background(), circuitSources(circuits), []leqa.Params{bad}, func(leqa.GridCell) error {
		t.Fatal("emit must not run when a parameter set fails validation")
		return nil
	})
	if err == nil {
		t.Fatal("want a validation error")
	}
}

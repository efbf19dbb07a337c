package leqa_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/leqa"
	"repro/leqa/trace"
)

// writeQCFiles renders benchmark circuits to .qc files for the file-backed
// streaming paths.
func writeQCFiles(t *testing.T, circuits []*leqa.Circuit) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, len(circuits))
	for i, c := range circuits {
		paths[i] = filepath.Join(dir, c.Name+".qc")
		if err := leqa.Save(paths[i], c); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestSweepGridSourcesMatchesBatch proves the lazy-source grid engine —
// mixing file-backed streams and in-memory circuits — produces cells
// bitwise identical to the materialized SweepGrid across a multi-column
// parameter matrix.
func TestSweepGridSourcesMatchesBatch(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder", "mod16adder")
	paths := writeQCFiles(t, circuits)
	p1 := leqa.DefaultParams()
	p1.Grid = leqa.Grid{Width: 16, Height: 16}
	p2 := leqa.DefaultParams()
	p2.Grid = leqa.Grid{Width: 24, Height: 24}
	paramSets := []leqa.Params{p1, p2}

	runner, err := leqa.NewRunner(p1, leqa.EstimateOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.SweepGrid(context.Background(), circuits, paramSets)
	if err != nil {
		t.Fatal(err)
	}
	sources := []leqa.Source{
		leqa.FileSource(paths[0], leqa.IngestOptions{}),
		leqa.CircuitSource(circuits[1]),
		leqa.FileSource(paths[2], leqa.IngestOptions{}),
	}
	got, err := runner.SweepGridSources(context.Background(), sources, paramSets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, want %d", len(got), len(want))
	}
	for k := range want {
		w, g := want[k], got[k]
		if g.CircuitIndex != w.CircuitIndex || g.ParamsIndex != w.ParamsIndex || g.Name != w.Name {
			t.Fatalf("cell %d labeled (%d,%d,%q), want (%d,%d,%q)", k,
				g.CircuitIndex, g.ParamsIndex, g.Name, w.CircuitIndex, w.ParamsIndex, w.Name)
		}
		if g.Err != nil || w.Err != nil {
			t.Fatalf("cell %d errs: source %v, batch %v", k, g.Err, w.Err)
		}
		if !reflect.DeepEqual(g.Result, w.Result) {
			t.Errorf("cell %d: source-engine estimate diverges from batch", k)
		}
	}
}

// TestRunSourcesSingleColumn covers a single-column run of lazily opened
// file sources — each row is a row of one through the same engine — and
// per-source error isolation: a missing file becomes one error row, not a
// batch failure.
func TestRunSourcesSingleColumn(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder")
	paths := writeQCFiles(t, circuits)
	runner, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := []leqa.Params{leqa.DefaultParams()}
	want, err := runner.SweepGrid(context.Background(), circuits, p)
	if err != nil {
		t.Fatal(err)
	}
	sources := []leqa.Source{
		leqa.FileSource(paths[0], leqa.IngestOptions{}),
		leqa.FileSource(filepath.Join(t.TempDir(), "missing.qc"), leqa.IngestOptions{}),
		leqa.FileSource(paths[1], leqa.IngestOptions{}),
	}
	var got []leqa.GridCell
	err = runner.SweepGridSourcesStream(context.Background(), sources, p, func(cell leqa.GridCell) error {
		got = append(got, cell)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d cells, want 3", len(got))
	}
	if !reflect.DeepEqual(got[0].Result, want[0].Result) || !reflect.DeepEqual(got[2].Result, want[1].Result) {
		t.Error("streamed estimates diverge from batch")
	}
	if got[1].Err == nil || !os.IsNotExist(got[1].Err) {
		t.Errorf("missing file error = %v", got[1].Err)
	}
}

// TestEstimateStreamCancellation checks a cancellation that lands while a
// source's gates are flowing surfaces as the cell's error instead of
// wedging the scan.
func TestEstimateStreamCancellation(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7")
	runner, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := leqa.Source{Name: "cancelled", Open: func() (leqa.GateStream, error) {
		cancel() // the row is already running; the scan must notice
		return leqa.NewCircuitStream(circuits[0]), nil
	}}
	cells, err := runner.SweepGridSources(ctx, []leqa.Source{src}, []leqa.Params{leqa.DefaultParams()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(cells) != 1 || !errors.Is(cells[0].Err, context.Canceled) || cells[0].Result != nil {
		t.Fatalf("cells = %+v, want one cancelled cell", cells)
	}
}

// TestEngineSourceKinds is the one engine's equivalence table: every source
// kind, under one and three parameter columns, with no cache, an analysis
// store, or a result memo attached (run cold, then warm), must produce
// cells bitwise-equal to a sequential Estimate of the circuit.
func TestEngineSourceKinds(t *testing.T) {
	circuits := streamTestCircuits(t, "ham7", "4bitadder")
	c := circuits[1]
	path := writeQCFiles(t, circuits[1:])[0]
	qc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var qcb bytes.Buffer
	if err := leqa.WriteQCB(&qcb, c); err != nil {
		t.Fatal(err)
	}
	a, err := leqa.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := leqa.CircuitDigest(c)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name string
		src  func() leqa.Source
	}{
		{"circuit", func() leqa.Source { return leqa.CircuitSource(c) }},
		{"reader-qc", func() leqa.Source { return leqa.ReaderSource(c.Name, bytes.NewReader(qc), leqa.IngestOptions{}) }},
		{"reader-qcb", func() leqa.Source {
			return leqa.ReaderSource(c.Name, bytes.NewReader(qcb.Bytes()), leqa.IngestOptions{})
		}},
		{"file", func() leqa.Source { return leqa.FileSource(path, leqa.IngestOptions{}) }},
		{"analysis", func() leqa.Source {
			s := leqa.AnalysisSource(c.Name, a)
			s.Digest = digest
			return s
		}},
	}
	p3 := leqa.DefaultParams()
	p3.QubitSpeed = 0.002
	p3.ChannelCapacity = 2
	columns := append(streamTestParams(), p3)
	want := make([]*leqa.EstimateResult, len(columns))
	for j, p := range columns {
		if want[j], err = leqa.Estimate(c, p); err != nil {
			t.Fatal(err)
		}
	}

	for _, kind := range kinds {
		for _, k := range []int{1, 3} {
			for _, cache := range []string{"none", "store", "memo"} {
				t.Run(fmt.Sprintf("%s/K=%d/%s", kind.name, k, cache), func(t *testing.T) {
					r, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 2)
					if err != nil {
						t.Fatal(err)
					}
					switch cache {
					case "store":
						st, err := leqa.NewAnalysisStore(leqa.AnalysisStoreOptions{})
						if err != nil {
							t.Fatal(err)
						}
						r.SetAnalysisStore(st)
					case "memo":
						r.SetResultMemo(leqa.NewResultMemo(0))
					}
					for run := 0; run < 2; run++ { // cold, then warm
						cells, err := r.SweepGridSources(context.Background(), []leqa.Source{kind.src()}, columns[:k])
						if err != nil {
							t.Fatal(err)
						}
						if len(cells) != k {
							t.Fatalf("run %d: %d cells, want %d", run, len(cells), k)
						}
						for j, cell := range cells {
							if cell.Err != nil {
								t.Fatalf("run %d cell %d: %v", run, j, cell.Err)
							}
							if !reflect.DeepEqual(cell.Result, want[j]) {
								t.Fatalf("run %d cell %d diverges from Estimate", run, j)
							}
						}
					}
					if m := r.ResultMemo(); m != nil && (kind.name == "circuit" || kind.name == "analysis") {
						if st := m.Stats(); st.Hits != uint64(k) {
							t.Errorf("warm run memo hits = %d, want %d (%+v)", st.Hits, k, st)
						}
					}
				})
			}
		}
	}
}

// TestCircuitSourceAnalyzesSerially pins how a CircuitSource row is
// analyzed: the materialized gate list goes through the serial in-place
// pass (its analyze span reads "gates=N"), not back through a re-streamed
// copy of itself.
func TestCircuitSourceAnalyzesSerially(t *testing.T) {
	c := streamTestCircuits(t, "ham7")[0]
	r, err := leqa.NewRunner(leqa.DefaultParams(), leqa.EstimateOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("serial")
	cells, err := r.SweepGridSources(trace.NewContext(context.Background(), tr),
		[]leqa.Source{leqa.CircuitSource(c)}, []leqa.Params{leqa.DefaultParams()})
	if err != nil || cells[0].Err != nil {
		t.Fatal(err, cells)
	}
	var details []string
	for _, sp := range tr.Spans() {
		if sp.Name == trace.SpanAnalyze {
			details = append(details, sp.Detail)
		}
	}
	want := fmt.Sprintf("gates=%d", c.NumGates())
	if len(details) != 1 || details[0] != want {
		t.Fatalf("analyze spans = %q, want exactly [%q]", details, want)
	}
}

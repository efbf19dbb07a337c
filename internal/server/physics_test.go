package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/leqa"
	"repro/leqa/client"
)

// TestNonFinitePhysics covers parameters that are NaN, infinite, or finite
// but extreme enough to overflow the model. /v1/estimate must answer with a
// 4xx JSON error envelope (never a 200 with an unencodable body), and a
// grid must deliver every row, the overflowing cell as an error row.
func TestNonFinitePhysics(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	post := func(t *testing.T, path, contentType, body string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	estimates := []struct {
		name, query, contentType, body string
	}{
		{"upload v=Inf", "?v=Inf", "text/plain", uploadQC},
		{"upload tmove=NaN", "?tmove=NaN", "text/plain", uploadQC},
		{"generate qubitSpeed=1e-320", "", "application/json", `{"generate":"ham7","params":{"qubitSpeed":1e-320}}`},
	}
	for _, tc := range estimates {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, "/v1/estimate"+tc.query, tc.contentType, tc.body)
			if resp.StatusCode < 400 || resp.StatusCode >= 500 {
				t.Fatalf("status %d, want a 4xx", resp.StatusCode)
			}
			var apiErr client.APIError
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Message == "" {
				t.Fatalf("body is not an error envelope: %+v, %v", apiErr, err)
			}
		})
	}

	t.Run("grid", func(t *testing.T) {
		// ham7 routes CNOTs, so 1e-320 overflows its d_uncong; the
		// one-qubit-only circuit has no routing term and stays finite.
		body := `{"circuits":[{"generate":"ham7"},{"qc":".v a\n.i a\nBEGIN\nH a\nT a\nEND\n","name":"local"}],` +
			`"paramSets":[{"grid":"16x16"},{"qubitSpeed":1e-320}]}`
		resp := post(t, "/v1/grid", "application/json", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		var rows []leqa.ResultRecord
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var rec leqa.ResultRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("row %d is not JSON: %v: %s", len(rows), err, sc.Bytes())
			}
			rows = append(rows, rec)
		}
		if len(rows) != 4 {
			t.Fatalf("%d rows, want all 4", len(rows))
		}
		for i, rec := range rows {
			wantErr := i == 1 // ham7 under the overflowing column
			if (rec.Error != "") != wantErr {
				t.Errorf("row %d (%s, params %d): error %q, want error=%v", i, rec.Circuit, rec.ParamsIndex, rec.Error, wantErr)
			}
		}
	})
}

// TestMixedBatchLeavesStoreAlone pins where inline circuits of a
// ref-mixed batch are cached: the result memo answers their warm repeats
// by digest, and the analysis store keeps only what PUT /v1/circuits put
// there.
func TestMixedBatchLeavesStoreAlone(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	info, err := c.PutCircuit(ctx, "stored", strings.NewReader(uploadQC))
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	req := client.GridRequest{
		Circuits:  []client.CircuitSpec{{Ref: info.Digest}, {Generate: "ham7"}, {QC: uploadQC, Name: "inline"}},
		ParamSets: []client.ParamSpec{{Grid: "16x16"}, {Grid: "24x24"}},
	}
	for run := 0; run < 2; run++ {
		rows := 0
		if err := c.Grid(ctx, req, func(rec leqa.ResultRecord) error {
			if rec.Error != "" {
				t.Fatalf("row %d: %s", rows, rec.Error)
			}
			rows++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if rows != 6 {
			t.Fatalf("run %d: %d rows, want 6", run, rows)
		}
	}
	after, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.AnalysisStore.Entries != before.AnalysisStore.Entries || after.AnalysisStore.Misses != before.AnalysisStore.Misses {
		t.Fatalf("mixed batch changed the store: %+v -> %+v", before.AnalysisStore, after.AnalysisStore)
	}
	// The warm run answers all six cells from the memo — the ref by its
	// known digest, the inline circuits by their computed ones.
	if hits := after.ResultMemo.Hits - before.ResultMemo.Hits; hits < 6 {
		t.Fatalf("warm mixed batch memo hits = %d, want >= 6", hits)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/leqa"
	"repro/leqa/client"
)

// countingServer builds a Server whose generator counts its calls — the
// proof that a warm {"generate":…} estimate never synthesizes.
func countingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls := new(atomic.Int64)
	s.generate = func(spec string) (*leqa.Circuit, error) {
		calls.Add(1)
		return leqa.GenerateFT(spec)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, calls
}

// postEstimate sends one JSON estimate and returns the raw reply body and
// its Server-Timing header.
func postEstimate(t *testing.T, ts *httptest.Server, req client.EstimateRequest) (body []byte, timing string) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate %+v: %d %s", req.CircuitSpec, resp.StatusCode, body)
	}
	return body, resp.Header.Get("Server-Timing")
}

// circuitName decodes a reply's circuit label.
func circuitName(t *testing.T, body []byte) string {
	t.Helper()
	var rec leqa.ResultRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.Circuit
}

// TestWarmGenerateBitwiseEqual: a warm generate estimate skips the
// generator yet replies byte-for-byte what the cold request replied, with
// and without a name override, and its Server-Timing shows the cached
// ingest and the memo hit.
func TestWarmGenerateBitwiseEqual(t *testing.T) {
	_, ts, calls := countingServer(t, Config{})
	for _, spec := range []client.CircuitSpec{
		{Generate: "gf2^6mult"},
		{Generate: "ham7", Name: "renamed"},
	} {
		req := client.EstimateRequest{CircuitSpec: spec}
		before := calls.Load()
		cold, coldTiming := postEstimate(t, ts, req)
		if calls.Load() != before+1 {
			t.Fatalf("%+v: cold request generated %d times, want 1", spec, calls.Load()-before)
		}
		if strings.Contains(coldTiming, "spec=cached") {
			t.Fatalf("%+v: cold Server-Timing %q claims a cached spec", spec, coldTiming)
		}
		for range 3 {
			warm, timing := postEstimate(t, ts, req)
			if !bytes.Equal(warm, cold) {
				t.Fatalf("%+v: warm reply differs from cold:\n%s\n%s", spec, warm, cold)
			}
			if !strings.Contains(timing, `desc="spec=cached"`) || !strings.Contains(timing, `desc="cols=0 memo=hit"`) {
				t.Fatalf("%+v: warm Server-Timing %q lacks the cached ingest and memo hit", spec, timing)
			}
		}
		if calls.Load() != before+1 {
			t.Fatalf("%+v: warm requests called the generator %d times", spec, calls.Load()-before-1)
		}
		if got := circuitName(t, cold); spec.Name != "" && got != spec.Name {
			t.Fatalf("%+v: reply names circuit %q, want the override", spec, got)
		}
	}
	// The override is per request: the same spec without a name answers
	// under the generator's name, from the same memoized cell.
	before := calls.Load()
	plain, _ := postEstimate(t, ts, client.EstimateRequest{CircuitSpec: client.CircuitSpec{Generate: "ham7"}})
	if got := circuitName(t, plain); calls.Load() != before || got != "ham7" {
		t.Fatalf("unnamed warm ham7: %d generator calls, circuit %q", calls.Load()-before, got)
	}
}

// TestWarmGenerateOptionsOverlay: a request-level options overlay keys its
// own memo cell, so a truncation request never reads the default-options
// result; once computed, the overlay's own cell is warm too.
func TestWarmGenerateOptionsOverlay(t *testing.T) {
	_, ts, calls := countingServer(t, Config{})
	spec := client.CircuitSpec{Generate: "gf2^6mult"}
	def, _ := postEstimate(t, ts, client.EstimateRequest{CircuitSpec: spec})
	overlay := client.EstimateRequest{CircuitSpec: spec, Options: &client.OptionsSpec{Truncation: intp(2)}}
	cold, timing := postEstimate(t, ts, overlay)
	if calls.Load() != 2 || strings.Contains(timing, "memo=hit") {
		t.Fatalf("overlay took the warm path: %d generator calls, Server-Timing %q", calls.Load(), timing)
	}
	if bytes.Equal(cold, def) {
		t.Fatal("truncation overlay returned the default-options record; pick a truncation that changes the estimate")
	}
	warm, _ := postEstimate(t, ts, overlay)
	if calls.Load() != 2 || !bytes.Equal(warm, cold) {
		t.Fatalf("warm overlay: %d generator calls, reply equal to cold: %v", calls.Load(), bytes.Equal(warm, cold))
	}
}

// TestWarmGenerateMemoDisabled: with the result memo off there is no spec
// table, and every request generates.
func TestWarmGenerateMemoDisabled(t *testing.T) {
	s, ts, calls := countingServer(t, Config{ResultMemoEntries: -1})
	if s.specs != nil {
		t.Fatal("a disabled memo must not build a spec table")
	}
	req := client.EstimateRequest{CircuitSpec: client.CircuitSpec{Generate: "ham7"}}
	first, _ := postEstimate(t, ts, req)
	for range 3 {
		again, timing := postEstimate(t, ts, req)
		if strings.Contains(timing, "spec=cached") || !bytes.Equal(again, first) {
			t.Fatalf("memo-less repeat: Server-Timing %q, equal reply %v", timing, bytes.Equal(again, first))
		}
	}
	if calls.Load() != 4 {
		t.Fatalf("generator ran %d times for 4 memo-less requests", calls.Load())
	}
}

// TestSpecTableBounded: a flood of distinct valid specs leaves the table at
// the memo's capacity, and the oldest spec is the one evicted.
func TestSpecTableBounded(t *testing.T) {
	const capacity = 3
	s, ts, calls := countingServer(t, Config{ResultMemoEntries: capacity})
	for n := 2; n <= 9; n++ {
		postEstimate(t, ts, client.EstimateRequest{CircuitSpec: client.CircuitSpec{Generate: fmt.Sprintf("gf2^%dmult", n)}})
		if got, want := s.specs.size(), min(n-1, capacity); got != want {
			t.Fatalf("after %d specs the table holds %d, want %d", n-1, got, want)
		}
	}
	if _, ok := s.specs.get("gf2^2mult"); ok {
		t.Fatal("the oldest spec survived the flood")
	}
	before := calls.Load()
	postEstimate(t, ts, client.EstimateRequest{CircuitSpec: client.CircuitSpec{Generate: "gf2^9mult"}})
	if calls.Load() != before {
		t.Fatal("the newest spec is no longer warm")
	}
}

func intp(v int) *int { return &v }

// TestWarmGenerateConcurrent drives cold and warm generate estimates of a
// few specs from many goroutines at once, over a memo small enough to
// evict: every reply must equal its spec's single-threaded reference.
func TestWarmGenerateConcurrent(t *testing.T) {
	specs := []string{"ham7", "gf2^4mult", "gf2^5mult", "4bitadder"}
	_, ref, _ := countingServer(t, Config{ResultMemoEntries: -1})
	want := make(map[string][]byte, len(specs))
	for _, spec := range specs {
		want[spec], _ = postEstimate(t, ref, client.EstimateRequest{CircuitSpec: client.CircuitSpec{Generate: spec}})
	}

	_, ts, _ := countingServer(t, Config{ResultMemoEntries: 2})
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 12 {
				spec := specs[(g+i)%len(specs)]
				raw, _ := json.Marshal(client.EstimateRequest{CircuitSpec: client.CircuitSpec{Generate: spec}})
				resp, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, want[spec]) {
					t.Errorf("%s: status %d err %v, reply equal to reference: %v", spec, resp.StatusCode, err, bytes.Equal(body, want[spec]))
					return
				}
			}
		}()
	}
	wg.Wait()
}

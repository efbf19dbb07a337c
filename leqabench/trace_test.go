package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming(`queue;dur=0.02, analyze;dur=31.40;desc="store=miss, shards=2", estimate;dur=12.11;desc="memo=hit; cols=1", emit, cache;desc=x`)
	want := map[string]float64{"queue": 0.02, "analyze": 31.40, "estimate": 12.11, "emit": 0, "cache": 0}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
	if got := parseServerTiming(""); len(got) != 0 {
		t.Errorf("empty header parsed as %v", got)
	}
	if got := parseServerTiming(`a;DUR="1.5"`); got["a"] != 1.5 {
		t.Errorf("quoted, upper-case dur: got %v", got)
	}
}

// TestServerTimingHeaderAndTrailer reads both forms leqad uses: a header on
// single replies, a trailer after a streamed NDJSON body.
func TestServerTimingHeaderAndTrailer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/header" {
			w.Header().Set("Server-Timing", "ingest;dur=1.25, estimate;dur=2")
			io.WriteString(w, `{"ok":true}`)
			return
		}
		w.Header().Set("Trailer", "Server-Timing")
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, "{\"row\":1}\n")
		w.(http.Flusher).Flush()
		io.WriteString(w, "{\"row\":2}\n")
		w.Header().Set("Server-Timing", `analyze;dur=3.5;desc="store=hit", emit;dur=0.5`)
	}))
	defer ts.Close()

	for _, c := range []struct {
		path string
		want map[string]float64
	}{
		{"/header", map[string]float64{"ingest": 1.25, "estimate": 2}},
		{"/stream", map[string]float64{"analyze": 3.5, "emit": 0.5}},
	} {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got, ok := serverTiming(resp)
		if !ok {
			t.Fatalf("%s: no Server-Timing found", c.path)
		}
		for k, v := range c.want {
			if got[k] != v {
				t.Errorf("%s: %s = %v, want %v", c.path, k, got[k], v)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "leqa", Dur: 10, From: fromBench},
		{ID: 2, Parent: 1, Layer: "analysis", Dur: 6, From: fromBench},
		{ID: 3, Parent: 1, Layer: "core", Dur: 3, From: fromBench},
		{ID: 4, Parent: 3, Layer: "qodg", Dur: 2, From: fromBench},
		{ID: 5, Parent: 1, Layer: "program", Dur: 9, From: fromProgram},
	}
	got := selfTimes(spans)
	want := map[string]float64{"leqa": 1, "analysis": 6, "core": 1, "qodg": 2}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self %s = %v, want %v", k, got[k], v)
		}
	}
	if _, ok := got["program"]; ok {
		t.Error("program-reported spans must not count as self time")
	}
}

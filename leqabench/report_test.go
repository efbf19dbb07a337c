package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestFailedOperationAtPercentile puts failed operations where the tail
// percentile lands: the metric is left out, and the result line is still
// the last line, with correct false.
func TestFailedOperationAtPercentile(t *testing.T) {
	rep := newReport()
	var calls []call
	for i := range 100 {
		c := call{ms: float64(i + 1)}
		if i%8 == 0 { // 13 failures: more than the 10 beyond p90
			c.err = errors.New("mismatch")
		}
		rep.count("estimate", c.err)
		calls = append(calls, c)
	}
	var lat []float64
	for _, c := range calls {
		lat = append(lat, latency(c))
	}
	lat = sortedCopy(lat)
	rep.set("svc_p50_ms", nearestRank(lat, 0.5), "ms", len(lat))
	q, v := highestSupported(lat, 0.99)
	rep.set("svc_p99_ms", v, "ms", len(lat))
	if q != 0.9 {
		t.Fatalf("100 samples select p%g, want p90", 100*q)
	}

	var out bytes.Buffer
	if rep.print(&out, "header", []string{"svc_p50_ms", "svc_p99_ms", "ok_ratio"}) {
		t.Fatal("a run with failed operations printed as correct")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	if res.Correct || res.Attempted != 100 || res.Failed != 13 {
		t.Errorf("result = %+v, want correct false, 100 attempted, 13 failed", res)
	}
	if _, ok := res.Metrics["svc_p99_ms"]; ok {
		t.Error("an infinite percentile was reported")
	}
	if m, ok := res.Metrics["svc_p50_ms"]; !ok || m.Value != 58 {
		t.Errorf("svc_p50_ms = %+v, want 58 (finite metrics stay)", m)
	}
	if _, ok := res.Metrics["ok_ratio"]; ok {
		t.Error("a metric that was never measured was reported")
	}
}

// TestCorrectRun keeps every measured metric and reports the run correct.
func TestCorrectRun(t *testing.T) {
	rep := newReport()
	rep.count("grid", nil)
	rep.set("grid_cells_per_s", 12.5, "cells/s", 1)
	var out bytes.Buffer
	if !rep.print(&out, "header", []string{"grid_cells_per_s"}) {
		t.Fatalf("a clean run printed as incorrect:\n%s", out.String())
	}
	if !strings.HasSuffix(strings.TrimSpace(out.String()),
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"grid_cells_per_s":{"value":12.5,"unit":"cells/s"}}}`) {
		t.Errorf("unexpected result line:\n%s", out.String())
	}
}

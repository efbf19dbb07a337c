package main

import (
	"reflect"
	"testing"
)

// requestKey flattens a request for comparison.
func requestKey(r svcRequest) any {
	labels := make([]string, len(r.fresh))
	for i, p := range r.fresh {
		labels[i] = p.label
	}
	return []any{r.kind, r.circuit, r.params, r.rows, labels}
}

func sequenceKeys(seed uint64, c, n int) []any {
	var keys []any
	for _, r := range requestSequence(seed, c, n) {
		keys = append(keys, requestKey(r))
	}
	return keys
}

func TestSeedDeterminism(t *testing.T) {
	const n = 500
	a, b := sequenceKeys(7, 0, n), sequenceKeys(7, 0, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two request sequences")
	}
	if reflect.DeepEqual(a, sequenceKeys(8, 0, n)) {
		t.Error("two seeds gave the same request sequence")
	}
	if reflect.DeepEqual(a, sequenceKeys(7, 1, n)) {
		t.Error("the two clients of one seed send the same sequence")
	}

	cols := func(seed uint64) []string {
		var labels []string
		for _, p := range drawColumns(newRNG(seed, 2), gridK) {
			labels = append(labels, p.label)
		}
		return labels
	}
	if !reflect.DeepEqual(cols(3), cols(3)) {
		t.Error("one seed drew two column sets")
	}
	if reflect.DeepEqual(cols(3), cols(4)) {
		t.Error("two seeds drew the same columns")
	}

	order := func(seed uint64) []int { return newRNG(seed, 2).Perm(36) }
	if !reflect.DeepEqual(order(5), order(5)) {
		t.Error("one seed gave two table3-cold orders")
	}
	if reflect.DeepEqual(order(5), order(6)) {
		t.Error("two seeds gave the same table3-cold order")
	}
}

// TestRequestMix checks each seed sends the kinds in their weights and the
// read cells equally often, and the pools stay inside the server's store
// and memo, so no by-ref read can miss the store.
func TestRequestMix(t *testing.T) {
	const rounds = 24 // enough deals for every read cell to come up
	total := 0
	for _, k := range svcKinds {
		total += k.weight
	}
	for _, seed := range []uint64{1, 2} {
		seen := map[string]int{}
		cells := map[[3]any]int{}
		for _, r := range requestSequence(seed, 0, rounds*total) {
			seen[r.kind]++
			if r.kind == "byref" || r.kind == "generate" {
				cells[[3]any{r.kind, r.circuit, r.params}]++
			}
		}
		for _, k := range svcKinds {
			if seen[k.name] != rounds*k.weight {
				t.Errorf("seed %d: kind %s drawn %d times, want %d", seed, k.name, seen[k.name], rounds*k.weight)
			}
		}
		np := len(paramPool())
		if len(cells) != (len(svcCircuits)+len(svcSpecs))*np {
			t.Errorf("seed %d: %d read cells drawn, want every one of %d", seed, len(cells), (len(svcCircuits)+len(svcSpecs))*np)
		}
	}
	if n := len(svcCircuits) + len(svcSpecs); n > 64 {
		t.Errorf("%d pool circuits exceed the 64-entry store", n)
	}
	for _, n := range svcNames() {
		for _, ps := range paramPool() {
			if _, ok := expected[cellKey(n, ps.label)]; !ok {
				t.Errorf("no expected value for read cell %s|%s", n, ps.label)
			}
		}
	}
}

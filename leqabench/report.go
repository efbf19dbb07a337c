package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// metric is one reported figure with the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

// tally counts one kind of operation.
type tally struct{ Attempted, Succeeded, Failed int }

// report collects a run's metrics, per-kind operation counts and the
// first few failures. Safe for concurrent use.
type report struct {
	mu      sync.Mutex
	metrics map[string]metric
	kinds   map[string]*tally
	errs    []string
	notes   []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, kinds: map[string]*tally{}}
}

// set stores a metric measured over n samples.
func (r *report) set(name string, v float64, unit string, n int) {
	r.setNote(name, v, unit, n, "")
}

func (r *report) setNote(name string, v float64, unit string, n int, note string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit, n: n, note: note}
}

// count records one finished operation of a kind; err non-nil marks it
// failed. Failures stay in the sample: nothing is retried or dropped.
func (r *report) count(kind string, err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tally(kind)
	t.Attempted++
	if err == nil {
		t.Succeeded++
		return
	}
	t.Failed++
	r.keep(kind, err)
}

// recount turns one already counted success of a kind into a failure, for
// outputs checked after the timed window.
func (r *report) recount(kind string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tally(kind)
	if t.Succeeded > 0 {
		t.Succeeded--
	} else {
		t.Attempted++
	}
	t.Failed++
	r.keep(kind, err)
}

func (r *report) tally(kind string) *tally {
	t := r.kinds[kind]
	if t == nil {
		t = &tally{}
		r.kinds[kind] = t
	}
	return t
}

func (r *report) keep(kind string, err error) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, kind+": "+err.Error())
	}
}

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) totals() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.kinds {
		attempted += t.Attempted
		failed += t.Failed
	}
	return attempted, failed
}

// print writes the human-readable report, then the result object as the
// last line: the metrics named in want, with their units. A metric that
// was not measured or is not a finite number (a failed operation counts as
// slower than any latency) is left out of the object and makes the run
// incorrect; the result line is written all the same. It reports whether
// the run was correct.
func (r *report) print(w io.Writer, header string, want []string) (correct bool) {
	attempted, failed := r.totals()
	correct = failed == 0 && attempted > 0
	fmt.Fprintln(w, header)
	kinds := make([]string, 0, len(r.kinds))
	for k := range r.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t := r.kinds[k]
		fmt.Fprintf(w, "  ops %-12s attempted=%d succeeded=%d failed=%d\n", k, t.Attempted, t.Succeeded, t.Failed)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	out := map[string]metric{}
	for _, name := range want {
		m, ok := r.metrics[name]
		switch {
		case !ok:
			correct = false
			fmt.Fprintf(w, "  %-34s not measured\n", name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			correct = false
			fmt.Fprintf(w, "  %-34s %16v %-8s n=%d %s (left out: not a finite number)\n", name, m.Value, m.Unit, m.n, m.note)
		default:
			out[name] = m
			fmt.Fprintf(w, "  %-34s %16.6g %-8s n=%d %s\n", name, m.Value, m.Unit, m.n, m.note)
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, out})
	fmt.Fprintln(w, string(line))
	return correct
}

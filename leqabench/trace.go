package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span origins: the benchmark's own timing around a public call, or a phase
// the program reported about itself (Server-Timing, a leqa/trace context).
const (
	fromBench   = "bench"
	fromProgram = "program"
)

// span is one timed interval. Spans of one operation share Op; Parent is
// the span that caused this one (0 for an operation's root).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Op     int64   `json:"op"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Item   string  `json:"item,omitempty"`
	From   string  `json:"from"`
	Start  float64 `json:"startMs"`
	Dur    float64 `json:"durMs"`
	start  time.Time
}

// maxSpans bounds the spans kept in memory; later spans are counted as
// dropped. No metric is computed from spans, so dropping changes none.
const maxSpans = 1 << 18

// recorder keeps spans in memory for the whole run and writes them out at
// the end. A nil *recorder records nothing, so untraced code paths call it
// unconditionally.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	open    map[int64]int // span ID → index in spans, while running
	nextID  int64
	nextOp  int64
	dropped int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: map[int64]int{}}
}

// newOp allocates an operation identifier.
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextOp++
	return r.nextOp
}

// begin opens a benchmark span and returns its ID.
func (r *recorder) begin(op, parent int64, layer, name, item string) int64 {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	if len(r.spans) >= maxSpans {
		r.dropped++
		return r.nextID
	}
	r.open[r.nextID] = len(r.spans)
	r.spans = append(r.spans, span{ID: r.nextID, Parent: parent, Op: op, Layer: layer, Name: name,
		Item: item, From: fromBench, Start: ms(now.Sub(r.t0)), start: now})
	return r.nextID
}

// end closes a span opened by begin.
func (r *recorder) end(id int64) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.open[id]; ok {
		delete(r.open, id)
		r.spans[i].Dur = ms(now.Sub(r.spans[i].start))
	}
}

// report records a finished phase the program measured itself, as a child
// of parent.
func (r *recorder) report(op, parent int64, layer, name, item string, durMs float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{ID: r.nextID, Parent: parent, Op: op, Layer: layer, Name: name,
		Item: item, From: fromProgram, Dur: durMs})
}

// selfTimes sums, per layer, each benchmark span's duration minus the part
// its benchmark child spans cover. Program-reported spans are kept apart:
// they describe the same interval from inside and are compared, not added.
func selfTimes(spans []span) map[string]float64 {
	child := map[int64]float64{}
	for _, s := range spans {
		if s.From == fromBench && s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		if s.From != fromBench {
			continue
		}
		d := s.Dur - child[s.ID]
		if d < 0 {
			d = 0
		}
		self[s.Layer] += d
	}
	return self
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans and the run's per-layer summary as JSON.
func (r *recorder) write(path string, summary any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	spans := r.snapshot()
	out := struct {
		Summary any    `json:"summary"`
		Dropped int    `json:"droppedSpans"`
		Self    any    `json:"selfMsByLayer"`
		Spans   []span `json:"spans"`
	}{summary, r.dropped, selfTimes(spans), spans}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// parseServerTiming reads a Server-Timing value such as
//
//	queue;dur=0.02, analyze;dur=31.40;desc="store=miss, shards=2", estimate;dur=12.11
//
// into per-metric durations in milliseconds. Entries without a dur
// parameter count as zero; quoted parameter values may hold commas and
// semicolons.
func parseServerTiming(v string) map[string]float64 {
	out := map[string]float64{}
	for _, entry := range splitUnquoted(v, ',') {
		params := splitUnquoted(entry, ';')
		name := strings.TrimSpace(params[0])
		if name == "" {
			continue
		}
		dur := 0.0
		for _, p := range params[1:] {
			k, val, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || !strings.EqualFold(strings.TrimSpace(k), "dur") {
				continue
			}
			if f, err := strconv.ParseFloat(strings.Trim(strings.TrimSpace(val), `"`), 64); err == nil {
				dur = f
			}
		}
		out[name] += dur
	}
	return out
}

// splitUnquoted splits s at sep outside double-quoted strings.
func splitUnquoted(s string, sep byte) []string {
	var parts []string
	quoted, escaped, from := false, false, 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case escaped:
			escaped = false
		case quoted && c == '\\':
			escaped = true
		case c == '"':
			quoted = !quoted
		case !quoted && c == sep:
			parts = append(parts, s[from:i])
			from = i + 1
		}
	}
	return append(parts, s[from:])
}

// serverTiming returns the Server-Timing phases of a response whose body
// has been read to EOF: from the header for single replies, from the
// trailer for streamed NDJSON replies. ok is false when neither carries one.
func serverTiming(resp *http.Response) (phases map[string]float64, ok bool) {
	for _, h := range []http.Header{resp.Header, resp.Trailer} {
		if vs := h.Values("Server-Timing"); len(vs) > 0 {
			return parseServerTiming(strings.Join(vs, ", ")), true
		}
	}
	return nil, false
}

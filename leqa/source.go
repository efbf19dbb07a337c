package leqa

import (
	"context"
	"io"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ingest"
)

// Streaming ingestion types, re-exported from the internal packages.
type (
	// GateStream is a re-windable stream of validated gates — the input of
	// the streaming estimation paths. ingest scanners (see FileSource /
	// ReaderSource) and CircuitSource streams implement it.
	GateStream = analysis.GateStream
	// PrevalidatedStream is the optional GateStream capability advertising
	// that yielded gates are already validated; wrappers that pass gates
	// through unchanged should forward it so the analysis passes keep
	// skipping the redundant per-gate re-validation.
	PrevalidatedStream = analysis.PrevalidatedStream
	// IngestOptions tunes the streaming .qc scanner: chunk size, line cap,
	// and the on-disk spool (directory, byte cap) non-seekable sources use
	// to support the analyzer's second pass.
	IngestOptions = ingest.Options
	// Appender extends an analyzed circuit with an append-only gate suffix
	// and snapshots Analyses without re-analyzing the prefix — the
	// interactive sizing primitive.
	Appender = analysis.Appender
	// NonFTError marks a circuit or gate stream containing gates outside
	// the fault-tolerant set; the streaming paths report it gate by gate,
	// and services use it to decide whether to fall back to materialized
	// decomposition.
	NonFTError = core.NonFTError
)

// NewAppender seeds an incremental Appender from an existing analysis (see
// Analyze).
func NewAppender(a *Analysis) (*Appender, error) { return analysis.NewAppender(a) }

// Source lazily opens one circuit's gate stream: nothing is read, spooled
// or analyzed until a sweep worker claims the source. The Runner's one
// engine (SweepGridSourcesStream) takes []Source, so a fleet of
// beyond-memory netlists can queue without their combined footprint ever
// existing at once.
type Source struct {
	// Name labels the circuit in results and diagnostics.
	Name string
	// Open produces the gate stream. Streams implementing io.Closer are
	// closed by the engine when the source's work is done. Open may be
	// called once per engine run; FileSource supports any number of runs,
	// ReaderSource exactly one.
	Open func() (GateStream, error)
	// Analysis, when non-nil, short-circuits ingestion entirely: the source
	// is estimated straight from this pre-built (typically store-resident)
	// analysis and Open is never called. The engines treat the analysis as
	// immutable and shared.
	Analysis *Analysis
	// StoreOutcome optionally labels how Analysis was obtained ("hit",
	// "disk") for request-trace attribution; empty reads as "ref". Purely
	// observational — it never changes estimation.
	StoreOutcome string
	// Digest, when non-empty, is the circuit's content digest, already known
	// before any ingestion — a by-reference request resolved from the
	// analysis store, typically. It lets the result memo probe for warm
	// (digest, params) cells before the source is opened or analyzed.
	Digest string

	// circuit, set by CircuitSource, lets the engine analyze the
	// materialized gate list directly instead of re-streaming it, and
	// derive the memo digest from it on demand.
	circuit *Circuit
}

// FileSource streams a .qc file, naming the circuit after the file. The
// file is opened lazily (and seeked, never spooled) when a worker claims
// it.
func FileSource(path string, opt IngestOptions) Source {
	return Source{Name: circuit.QCBaseName(path), Open: func() (GateStream, error) {
		return ingest.Open(path, opt)
	}}
}

// ReaderSource streams a netlist from an arbitrary reader (stdin, a
// network body) — textual .qc or binary .qcb, either gzipped, sniffed by
// magic bytes — spooling to disk for the analyzer's second pass when r
// cannot seek. The reader is consumed; the source can be opened once.
func ReaderSource(name string, r io.Reader, opt IngestOptions) Source {
	return Source{Name: name, Open: func() (GateStream, error) {
		return ingest.NewAutoStream(r, name, opt)
	}}
}

// CircuitSource adapts an in-memory circuit so materialized and streamed
// inputs can share one batch run. Without an attached store the engine
// analyzes the gate list in place; Open still yields it as a stream for
// any other consumer.
func CircuitSource(c *Circuit) Source {
	return Source{Name: c.Name, circuit: c, Open: func() (GateStream, error) {
		return analysis.NewCircuitStream(c), nil
	}}
}

// NewCircuitStream wraps an in-memory circuit as a rewindable GateStream —
// the adapter for feeding materialized circuits to stream consumers such
// as AnalysisStore.GetOrAnalyze or StreamDigest.
func NewCircuitStream(c *Circuit) GateStream { return analysis.NewCircuitStream(c) }

// AnalysisSource adapts a pre-built analysis — typically a content-store
// hit resolved by digest — so by-reference requests can share a batch run
// with streamed netlists while skipping ingestion and analysis entirely.
func AnalysisSource(name string, a *Analysis) Source {
	return Source{Name: name, Analysis: a}
}

// ctxStream threads context cancellation into a flowing gate stream: the
// scan stops with ctx's error at the next gate boundary (checked every
// ctxCheckEvery gates, so the overhead never shows on the hot path).
type ctxStream struct {
	src GateStream
	ctx context.Context
	n   int
	err error
}

const ctxCheckEvery = 4096

func (s *ctxStream) Scan() bool {
	if s.err != nil {
		return false
	}
	if s.n%ctxCheckEvery == 0 {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return false
		}
	}
	s.n++
	return s.src.Scan()
}

func (s *ctxStream) Gate() Gate { return s.src.Gate() }

func (s *ctxStream) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.src.Err()
}

func (s *ctxStream) Rewind() error {
	if s.err != nil {
		return s.err
	}
	s.n = 0
	return s.src.Rewind()
}

func (s *ctxStream) NumQubits() int { return s.src.NumQubits() }
func (s *ctxStream) Name() string   { return s.src.Name() }

// PrevalidatedGates forwards the wrapped stream's validation guarantee
// (analysis.PrevalidatedStream): cancellation checks don't alter gates.
func (s *ctxStream) PrevalidatedGates() bool {
	p, ok := s.src.(analysis.PrevalidatedStream)
	return ok && p.PrevalidatedGates()
}

// closeStream releases a stream that owns resources (ingest scanners hold
// spool files); in-memory streams are no-ops.
func closeStream(src GateStream) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

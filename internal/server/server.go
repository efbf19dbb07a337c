// Package server implements the leqad estimation service: an HTTP layer
// over the public leqa API that estimates uploaded .qc netlists or
// generated benchmarks and streams batch results back as they complete.
//
// Endpoints:
//
//	POST /v1/estimate    one circuit (JSON spec or raw .qc body) → one JSON record
//	POST /v1/sweep       circuits under one parameter set → streamed rows
//	POST /v1/grid        circuits × paramSets cross product → streamed rows
//	GET  /v1/benchmarks  generator catalog
//	GET  /healthz        build info + zone-model cache statistics
//	GET  /metrics        Prometheus-style per-endpoint request/row/latency
//
// Raw .qc uploads stream through internal/ingest: gates are parsed and
// analyzed as the body flows, with an on-disk spool (never RAM) backing the
// analyzer's second pass, so chunked uploads far past MaxBodyBytes estimate
// in O(analysis) memory under the MaxSpoolBytes disk cap (the 413 limit for
// raw uploads).
//
// The batch endpoints stream one leqa.ResultRecord per row — NDJSON by
// default, server-sent events when the client asks for text/event-stream —
// in input order as each row's prefix completes, with per-row errors
// instead of batch aborts. All requests share one leqa.Runner, so every
// estimate in the process funnels through the same memoized zone model;
// request-context cancellation propagates into the sweep engine and stops
// feeding unstarted work.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/leqa"
	"repro/leqa/client"
	"repro/leqa/trace"
)

// Default limits; every Config field of the same name overrides one.
const (
	DefaultMaxBodyBytes  = 8 << 20 // 8 MiB of request body
	DefaultMaxGates      = 2_000_000
	DefaultMaxCells      = 4096
	DefaultMaxConcurrent = 16
	// DefaultMaxSpoolBytes caps the on-disk spool a streamed raw .qc
	// upload may occupy — the streaming successor of MaxBodyBytes, which
	// bounds RAM. 256 MiB of netlist is ~10M operations.
	DefaultMaxSpoolBytes = 256 << 20
)

// Config assembles a Server. The zero value serves Table 1 defaults with
// sane limits.
type Config struct {
	// Params is the base physical parameter set requests overlay; zero
	// means leqa.DefaultParams().
	Params leqa.Params
	// Options is the base estimator tuning requests overlay.
	Options leqa.EstimateOptions
	// Workers sizes the shared Runner's pool; ≤ 0 selects GOMAXPROCS.
	Workers int
	// MaxBodyBytes caps every JSON request body (and the materialized
	// decompose fallback of raw uploads); exceeding it is a 413.
	MaxBodyBytes int64
	// MaxSpoolBytes caps the disk spool of one streamed raw .qc upload;
	// exceeding it is a 413. Raw uploads stream past MaxBodyBytes up to
	// this cap without ever occupying RAM.
	MaxSpoolBytes int64
	// SpoolDir receives upload spools; empty means os.TempDir().
	SpoolDir string
	// MaxGates caps one circuit's post-decomposition operation count.
	MaxGates int
	// MaxCells caps circuits × paramSets per batch request.
	MaxCells int
	// MaxConcurrent caps simultaneous estimation requests; excess
	// requests get 429 rather than queueing without bound.
	MaxConcurrent int
	// MaxQueue admits up to this many excess requests to a bounded wait for
	// a slot (at most QueueTimeout each) before 429. 0 — the default —
	// keeps the historical immediate-429 behavior.
	MaxQueue int
	// QueueTimeout bounds one queued request's wait for a slot; ≤ 0
	// selects 5s. Only meaningful with MaxQueue > 0.
	QueueTimeout time.Duration
	// Window spans the sliding-window telemetry (windowed percentiles,
	// error rates, queue-wait estimate, per-client counts); ≤ 0 selects 60s.
	Window time.Duration
	// SLO is a comma-separated objective list, e.g.
	// "estimate:p99<250ms,error_rate<1%" — see telemetry.ParseSLO. Empty
	// disables the evaluator (no slo block on /healthz, no slo series on
	// /metrics). Clause scopes must name an estimation endpoint (estimate,
	// sweep, grid) or be empty (merged estimation traffic).
	SLO string
	// SLOInterval paces SLO evaluation; ≤ 0 selects 5s.
	SLOInterval time.Duration
	// DegradeAfter is the consecutive breaching evaluations before /healthz
	// reports "degraded"; ≤ 0 selects 3.
	DegradeAfter int
	// MaxClients bounds the per-client accounting cardinality (the
	// leqad_client_* label budget); ≤ 0 selects 64. Excess clients fold
	// into the "other" row.
	MaxClients int
	// Clock injects time into the sliding-window telemetry — a test seam;
	// nil selects time.Now. Request timing and queue timeouts keep using
	// the real clock.
	Clock func() time.Time
	// StoreDir, when non-empty, enables the analysis store's disk tier:
	// analyses of uploaded circuits persist there as content-addressed
	// .qca images and survive restarts. The memory tier is always on.
	StoreDir string
	// StoreMemEntries bounds the store's in-memory LRU; ≤ 0 selects the
	// leqa default.
	StoreMemEntries int
	// StoreMaxDiskBytes caps the store's disk tier; ≤ 0 means unbounded.
	StoreMaxDiskBytes int64
	// ResultMemoEntries sizes the (digest, params) result memo that lets
	// warm identical estimate/sweep/grid cells skip analyze and estimate
	// entirely: 0 selects leqa.DefaultResultMemoEntries, negative disables
	// the memo. Hits are exact-key only, so every setting is
	// result-preserving.
	ResultMemoEntries int
	// Version is the build identifier reported by /healthz.
	Version string
	// Log receives request-level diagnostics; nil discards them.
	Log *log.Logger
	// Logger receives structured access logs, slow-request breakdowns and
	// panic reports. nil falls back to a text handler over Log's writer
	// when Log is set, and discards otherwise.
	Logger *slog.Logger
	// SlowRequest, when positive, logs any request at or over this duration
	// at warn level with its full span breakdown.
	SlowRequest time.Duration
	// TraceRing sizes the GET /debug/requests ring of recent request
	// traces; ≤ 0 selects trace.DefaultRingSize.
	TraceRing int
	// EnableDebug mounts the net/http/pprof surfaces on the main mux under
	// /debug/pprof/. Off by default: profiles expose internals, so they are
	// opt-in (or bound privately via DebugHandler and cmd/leqad
	// -debug-addr). GET /debug/requests is always on.
	EnableDebug bool
	// FlushHook, when set, runs after each streamed row reaches the
	// client (with the 1-based row count). It is a test seam: a blocking
	// hook holds the stream — and through backpressure the whole batch —
	// exactly where it is.
	FlushHook func(rows int)
}

// Server is the leqad request layer. Create with New; it implements
// http.Handler.
type Server struct {
	cfg     Config
	runner  *leqa.Runner
	store   *leqa.AnalysisStore
	memo    *leqa.ResultMemo // nil when disabled
	specs   *specDigests     // generate spec → digest; nil without memo
	mux     *http.ServeMux
	handler http.Handler // mux behind the observability middleware
	sem     chan struct{}
	start   time.Time
	logger  *slog.Logger
	ring    *trace.Ring
	panics  atomic.Uint64

	// generate synthesizes and FT-lowers a {"generate":…} spec:
	// leqa.GenerateFT, swapped only by tests that count its calls.
	generate func(spec string) (*leqa.Circuit, error)

	// baseCtx is cancelled by Abort to stop every in-flight batch during
	// forced shutdown.
	baseCtx   context.Context
	abortBase context.CancelFunc

	requests        atomic.Uint64
	rowsStreamed    atomic.Uint64
	batchesCanceled atomic.Uint64
	latency         latencyRecorder

	// Per-endpoint metrics behind GET /metrics; the flat counters above
	// keep feeding /healthz unchanged.
	endpoints      map[string]*endpointMetrics
	spooledUploads atomic.Uint64
	spooledBytes   atomic.Uint64

	// Per-phase latency (ingest/analyze/estimate), fed by the process-wide
	// leqa phase observer the newest Server registers; see New.
	phases map[string]*latencyRecorder

	// Sliding-window telemetry (saturation.go): per-endpoint latency
	// sketches and completion/error counters, the queue-wait window pricing
	// Retry-After, per-phase windows fed by the phase-observer tee,
	// admission gauges, throttle counters by reason, bounded per-client
	// accounting, and the optional SLO evaluator.
	winLen    time.Duration
	winLat    map[string]*telemetry.Window
	winReq    map[string]*telemetry.Counter
	winErr    map[string]*telemetry.Counter
	phaseWin  map[string]*telemetry.Window
	queueWait *telemetry.Window
	queued    atomic.Int64
	inflight  atomic.Int64
	throttled map[string]*atomic.Uint64
	clients   *telemetry.Clients
	evaluator *telemetry.Evaluator // nil without Config.SLO
}

// metricsEndpoints fixes the exposition order of the per-endpoint series.
var metricsEndpoints = []string{"estimate", "sweep", "grid", "circuits", "benchmarks", "healthz"}

// metricsPhases fixes the exposition order of the per-phase series.
var metricsPhases = []string{leqa.PhaseIngest, leqa.PhaseAnalyze, leqa.PhaseEstimate}

// endpointMetrics aggregates one endpoint's request/row/latency series for
// the Prometheus-style /metrics exposition.
type endpointMetrics struct {
	requests atomic.Uint64
	rows     atomic.Uint64
	latency  latencyRecorder
}

// latencyBucketBounds are the upper edges of the coarse request-latency
// histogram /healthz reports; the final bucket is unbounded.
var latencyBucketBounds = [...]time.Duration{
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second,
}

// latencyRecorder accumulates per-request estimate latency with lock-free
// counters: count/sum/max plus a coarse histogram — the cheap first slice
// of request metrics, shared by every estimation endpoint.
type latencyRecorder struct {
	count    atomic.Uint64
	sumNanos atomic.Uint64
	maxNanos atomic.Uint64
	buckets  [len(latencyBucketBounds) + 1]atomic.Uint64
}

func (l *latencyRecorder) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d.Nanoseconds())
	l.count.Add(1)
	l.sumNanos.Add(ns)
	for {
		cur := l.maxNanos.Load()
		if ns <= cur || l.maxNanos.CompareAndSwap(cur, ns) {
			break
		}
	}
	idx := len(latencyBucketBounds)
	for i, bound := range latencyBucketBounds {
		if d < bound {
			idx = i
			break
		}
	}
	l.buckets[idx].Add(1)
}

func (l *latencyRecorder) snapshot() client.LatencyStats {
	const msPerNano = 1e-6
	st := client.LatencyStats{
		Count:          l.count.Load(),
		SumMs:          float64(l.sumNanos.Load()) * msPerNano,
		MaxMs:          float64(l.maxNanos.Load()) * msPerNano,
		BucketBoundsMs: make([]float64, len(latencyBucketBounds)),
		Buckets:        make([]uint64, len(l.buckets)),
	}
	if st.Count > 0 {
		st.AvgMs = st.SumMs / float64(st.Count)
	}
	for i, bound := range latencyBucketBounds {
		st.BucketBoundsMs[i] = float64(bound) * msPerNano
	}
	for i := range l.buckets {
		st.Buckets[i] = l.buckets[i].Load()
	}
	return st
}

// New validates the configuration and builds the service around one shared
// Runner.
func New(cfg Config) (*Server, error) {
	if reflect.DeepEqual(cfg.Params, leqa.Params{}) {
		cfg.Params = leqa.DefaultParams()
	} else if len(cfg.Params.GateDelay) == 0 {
		// Params.Validate tolerates an empty delay map (every one-qubit op
		// would silently cost 0µs); a partially built config is a mistake,
		// not a request for defaults.
		return nil, fmt.Errorf("server: Config.Params has no gate delays; start from leqa.DefaultParams()")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxGates <= 0 {
		cfg.MaxGates = DefaultMaxGates
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = DefaultMaxCells
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.MaxSpoolBytes <= 0 {
		cfg.MaxSpoolBytes = DefaultMaxSpoolBytes
	}
	if cfg.MaxQueue > 0 && cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 5 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	runner, err := leqa.NewRunner(cfg.Params, cfg.Options, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("server: base parameters: %w", err)
	}
	store, err := leqa.NewAnalysisStore(leqa.AnalysisStoreOptions{
		MemEntries:   cfg.StoreMemEntries,
		Dir:          cfg.StoreDir,
		MaxDiskBytes: cfg.StoreMaxDiskBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("server: analysis store: %w", err)
	}
	var memo *leqa.ResultMemo
	if cfg.ResultMemoEntries >= 0 {
		memo = leqa.NewResultMemo(cfg.ResultMemoEntries)
		runner.SetResultMemo(memo)
	}
	baseCtx, abort := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		runner:    runner,
		store:     store,
		memo:      memo,
		generate:  leqa.GenerateFT,
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		start:     time.Now(),
		baseCtx:   baseCtx,
		abortBase: abort,
		endpoints: make(map[string]*endpointMetrics, len(metricsEndpoints)),
	}
	if memo != nil {
		s.specs = newSpecDigests(memo.Stats().Capacity)
	}
	for _, name := range metricsEndpoints {
		s.endpoints[name] = &endpointMetrics{}
	}
	s.phases = make(map[string]*latencyRecorder, len(metricsPhases))
	for _, name := range metricsPhases {
		s.phases[name] = &latencyRecorder{}
	}

	// Sliding-window telemetry: one window/counter pair per estimation
	// endpoint, per-phase windows, the queue-wait sketch, throttle counters
	// and bounded per-client accounting.
	wopt := telemetry.WindowOptions{Length: cfg.Window, Clock: cfg.Clock}
	s.winLen = telemetry.NewWindow(wopt).Length()
	s.winLat = make(map[string]*telemetry.Window, len(metricsEndpoints))
	s.winReq = make(map[string]*telemetry.Counter, len(metricsEndpoints))
	s.winErr = make(map[string]*telemetry.Counter, len(metricsEndpoints))
	for _, name := range metricsEndpoints {
		s.winLat[name] = telemetry.NewWindow(wopt)
		s.winReq[name] = telemetry.NewCounter(wopt)
		s.winErr[name] = telemetry.NewCounter(wopt)
	}
	s.phaseWin = make(map[string]*telemetry.Window, len(metricsPhases))
	for _, name := range metricsPhases {
		s.phaseWin[name] = telemetry.NewWindow(wopt)
	}
	s.queueWait = telemetry.NewWindow(wopt)
	s.throttled = make(map[string]*atomic.Uint64, len(throttleReasons))
	for _, reason := range throttleReasons {
		s.throttled[reason] = &atomic.Uint64{}
	}
	s.clients = telemetry.NewClients(telemetry.ClientsOptions{Max: cfg.MaxClients, Window: wopt})
	if cfg.SLO != "" {
		clauses, err := telemetry.ParseSLO(cfg.SLO)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		for _, c := range clauses {
			if c.Scope != "" && s.winLat[c.Scope] == nil {
				return nil, fmt.Errorf("server: slo clause %q: unknown scope %q (want one of %v, or none)",
					c.String(), c.Scope, estimationEndpoints())
			}
		}
		s.evaluator = telemetry.NewEvaluator(clauses, s.sloSource, telemetry.EvaluatorOptions{
			Interval:     cfg.SLOInterval,
			DegradeAfter: cfg.DegradeAfter,
			Clock:        telemetry.Clock(cfg.Clock),
		})
	}

	// The phase observer is process-wide (the leqa pipeline has no handle to
	// carry per-server state through an arena checkout); a leqad process runs
	// one Server, and when several coexist — tests — the newest one's
	// recorders win. The tee feeds every phase report to both the cumulative
	// histograms and the sliding windows.
	leqa.SetPhaseObserver(leqa.TeePhaseObservers(
		func(phase string, d time.Duration) {
			if l := s.phases[phase]; l != nil {
				l.observe(d)
			}
		},
		func(phase string, d time.Duration) {
			if wnd := s.phaseWin[phase]; wnd != nil {
				wnd.Observe(d)
			}
		},
	))
	s.logger = cfg.Logger
	if s.logger == nil {
		if cfg.Log != nil {
			s.logger = slog.New(slog.NewTextHandler(cfg.Log.Writer(), nil))
		} else {
			s.logger = slog.New(slog.DiscardHandler)
		}
	}
	s.ring = trace.NewRing(cfg.TraceRing)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", s.withSlot("estimate", s.handleEstimate))
	mux.HandleFunc("POST /v1/sweep", s.withSlot("sweep", s.handleSweep))
	mux.HandleFunc("POST /v1/grid", s.withSlot("grid", s.handleGrid))
	mux.HandleFunc("PUT /v1/circuits", s.withSlot("circuits", s.handleCircuitPut))
	mux.HandleFunc("GET /v1/circuits/{digest}", s.counted("circuits", s.handleCircuitGet))
	mux.HandleFunc("HEAD /v1/circuits/{digest}", s.counted("circuits", s.handleCircuitGet))
	mux.HandleFunc("GET /v1/benchmarks", s.counted("benchmarks", s.handleBenchmarks))
	mux.HandleFunc("GET /healthz", s.counted("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/clients", s.handleDebugClients)
	if cfg.EnableDebug {
		registerPprof(mux)
	}
	s.mux = mux
	s.handler = s.observe(mux)
	return s, nil
}

// counted tallies an unthrottled endpoint's requests for /metrics.
func (s *Server) counted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		em.requests.Add(1)
		h(w, r)
	}
}

// ServeHTTP dispatches to the service's routes through the observability
// middleware (request trace, access log, panic recovery, debug ring).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.handler.ServeHTTP(w, r)
}

// Abort cancels every in-flight batch. cmd/leqad calls it when graceful
// drain exceeds its deadline, so hung streams cannot block shutdown.
func (s *Server) Abort() { s.abortBase() }

// Workers reports the shared pool size.
func (s *Server) Workers() int { return s.runner.Workers() }

// requestContext derives the batch context: cancelled when the client goes
// away (request context) or when the server aborts.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// statusCapture remembers the first status code a handler writes so
// withSlot can decide whether the request did estimation work. Flush is
// forwarded so the streaming row encoders still see an http.Flusher.
type statusCapture struct {
	http.ResponseWriter
	status int
}

func (sc *statusCapture) WriteHeader(code int) {
	if sc.status == 0 {
		sc.status = code
	}
	sc.ResponseWriter.WriteHeader(code)
}

func (sc *statusCapture) Write(b []byte) (int, error) {
	if sc.status == 0 {
		sc.status = http.StatusOK
	}
	return sc.ResponseWriter.Write(b)
}

func (sc *statusCapture) Flush() {
	if f, ok := sc.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withSlot gates a handler behind the concurrency semaphore: a full server
// answers 429 (with a Retry-After priced from the windowed queue-wait
// estimate) instead of queueing unbounded work — admit() optionally holds
// up to MaxQueue excess requests in a bounded, timed wait first. Admitted
// requests that start a successful reply are timed into the latency
// recorder — from slot acquisition to the last byte written, so streamed
// batches count their full duration. Requests rejected before estimation
// (malformed bodies, bad parameters — any 4xx/5xx) are not recorded, so
// probe or fuzz traffic cannot drag the metric toward zero.
func (s *Server) withSlot(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		em.requests.Add(1)
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		observeQueue(r)
		sc := &statusCapture{ResponseWriter: w}
		t0 := time.Now()
		// Deferred so aborted NDJSON streams — enc.fail panics with
		// http.ErrAbortHandler to cut the connection — are still
		// timed like their SSE equivalents.
		defer func() {
			if sc.status >= http.StatusOK && sc.status < http.StatusBadRequest {
				d := time.Since(t0)
				s.latency.observe(d)
				em.latency.observe(d)
			}
		}()
		h(sc, r)
	}
}

// logf writes a request-level diagnostic when logging is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// handleHealthz reports build info, the shared zone-model memo counters,
// the service's request totals, the saturation block (admission gauges,
// windowed per-endpoint percentiles, throttle counts) and — when an SLO is
// configured — the per-clause compliance block. A server in sustained SLO
// breach reports "degraded" but stays 200: the process is alive and
// serving; objective state is the payload's job, not the status code's.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := leqa.ZoneModelCacheStats()
	as := s.store.Stats()
	var ms leqa.ResultMemoStats
	if s.memo != nil {
		ms = s.memo.Stats()
	}
	status := "ok"
	var slo *client.SLOStatus
	if s.evaluator != nil {
		s.evaluator.MaybeTick()
		slo = s.sloStatus()
		if slo.Degraded {
			status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, client.Health{
		Status:          status,
		Version:         s.cfg.Version,
		GoVersion:       runtime.Version(),
		UptimeSec:       time.Since(s.start).Seconds(),
		Workers:         s.runner.Workers(),
		Requests:        s.requests.Load(),
		RowsStreamed:    s.rowsStreamed.Load(),
		BatchesCanceled: s.batchesCanceled.Load(),
		EstimateLatency: s.latency.snapshot(),
		ZoneModelCache: client.CacheStats{
			Hits:      st.Hits,
			Misses:    st.Misses,
			Evictions: st.Evictions,
			Entries:   st.Entries,
			Capacity:  st.Capacity,
		},
		AnalysisStore: client.StoreStats{
			Hits:          as.Hits,
			Misses:        as.Misses,
			DiskHits:      as.DiskHits,
			Puts:          as.Puts,
			Evictions:     as.Evictions,
			DiskEvictions: as.DiskEvictions,
			Entries:       as.Entries,
			Capacity:      as.Capacity,
			DiskEntries:   as.DiskEntries,
			DiskBytes:     as.DiskBytes,
		},
		ResultMemo: client.MemoStats{
			Hits:      ms.Hits,
			Misses:    ms.Misses,
			Evictions: ms.Evictions,
			Entries:   ms.Entries,
			Capacity:  ms.Capacity,
		},
		Saturation: s.saturationStats(),
		SLO:        slo,
	})
}

// writeJSON renders v as the whole reply. The body is encoded before the
// status goes out, so a value that cannot be encoded is a visible 500, not
// a 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(client.APIError{Message: "encoding reply: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

// writeJSONError renders the service's error envelope.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, client.APIError{Message: msg})
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/leqa"
	"repro/leqa/client"
)

// svcCircuits are uploaded at set-up and read by reference; svcSpecs are
// sent as {"generate": …} specs. The uploaded pool is eight of Table 3's
// circuits below 50k operations, so a by-ref read or upload stays in the
// milliseconds; the specs add one mid-size circuit per generator family
// and gf2^64mult, the smallest large one, whose generation and FT lowering
// a generate request pays even on a memo hit. With the param pool they
// give 33 read cells, far below the server's 64-entry store and 256-entry
// memo, so no by-ref read misses the store.
var (
	svcCircuits = []string{"8bitadder", "ham15", "gf2^16mult", "hwb15ps", "gf2^20mult", "mod1048576adder", "hwb20ps", "hwb50ps"}
	svcSpecs    = []string{"hwb16ps", "gf2^18mult", "gf2^64mult"}
)

// svcNames lists every circuit service-mix reads: the uploaded pool, then
// the generator specs.
func svcNames() []string {
	return append(append([]string(nil), svcCircuits...), svcSpecs...)
}

// Request kinds and their weights in the mix. Reads (byref, generate)
// repeat cells from the pools; writes (upload, put, grid) bring fresh
// parameters or re-store circuits.
//
// The weights follow the repository's reference load mix, the one
// cmd/leqaload runs in the README and in CI's SLO job,
// estimate=5,sweep=2,grid=1,byref=3: generate takes estimate's 5 (both
// estimate a generated spec), byref keeps 3, and grid takes grid's 1 plus
// sweep's 2 (both stream NDJSON rows for four circuits; this mix has no
// sweep kind). That mix has no uploads or PUTs, so their weight of 1 each
// is assumed, not measured: the smallest reference weight, which keeps
// writes a minority (2 of 13), as for callers that store a circuit once
// and then read it many times.
var svcKinds = []struct {
	name   string
	weight int
}{{"byref", 3}, {"generate", 5}, {"upload", 1}, {"put", 1}, {"grid", 3}}

// A grid is leqaload's shape, four circuits × two parameter columns; here
// the rows are by-ref and the columns fresh, so every cell misses the memo.
//
// Two closed-loop callers keep both cores of a 2-vCPU guest busy. With one,
// a core idles and wakes at every request, and each wake can wait for the
// hypervisor: in runs alternated on one host, one caller saw 4-32 % steal
// and lost 7-39 % of its req/s while two saw under 2 % and lost under 8 %.
const (
	svcClients  = 2 // closed-loop callers, one connection each
	svcGridRows = 4
	svcGridCols = 2
	svcChunk    = 250 // completions per rate slice
)

// svcRequest is one request of the seeded sequence.
type svcRequest struct {
	kind    string
	circuit int        // index into svcCircuits (byref, upload, put) or svcSpecs (generate)
	params  int        // index into paramPool (byref, generate)
	rows    []int      // grid rows, indexes into svcCircuits
	fresh   []paramSet // upload: one column; grid: svcGridCols columns
}

// deck deals the indexes 0..n-1 in a fresh seeded order each round, so
// every index comes up equally often however short the sequence.
type deck struct {
	n    int
	left []int
}

func (d *deck) deal(rng *rand.Rand) int {
	if len(d.left) == 0 {
		d.left = rng.Perm(d.n)
	}
	x := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return x
}

// mixer deals a caller's requests. Each block of 13 holds the kinds in
// their weights, and each kind cycles through its circuits (and, for
// reads, their pool cells), so runs of any seed send the same mix; the
// seed decides the order and the fresh parameters. The sequence depends
// on the stream alone, never on replies.
type mixer struct {
	rng                             *rand.Rand
	kinds, byref, gen, up, put, row deck
}

func newMixer(rng *rand.Rand) *mixer {
	total := 0
	for _, k := range svcKinds {
		total += k.weight
	}
	nc, np := len(svcCircuits), len(paramPool())
	return &mixer{rng: rng, kinds: deck{n: total},
		byref: deck{n: nc * np}, gen: deck{n: len(svcSpecs) * np},
		up: deck{n: nc}, put: deck{n: nc}, row: deck{n: nc}}
}

func (m *mixer) next() svcRequest {
	x := m.kinds.deal(m.rng)
	kind := svcKinds[len(svcKinds)-1].name
	for _, k := range svcKinds {
		if x < k.weight {
			kind = k.name
			break
		}
		x -= k.weight
	}
	np := len(paramPool())
	r := svcRequest{kind: kind}
	switch kind {
	case "byref":
		c := m.byref.deal(m.rng)
		r.circuit, r.params = c/np, c%np
	case "generate":
		c := m.gen.deal(m.rng)
		r.circuit, r.params = c/np, c%np
	case "put":
		r.circuit = m.put.deal(m.rng)
	case "upload":
		r.circuit = m.up.deal(m.rng)
		r.fresh = drawColumns(m.rng, 1)
	case "grid":
		for range svcGridRows {
			r.rows = append(r.rows, m.row.deal(m.rng))
		}
		r.fresh = drawColumns(m.rng, svcGridCols)
	}
	return r
}

// requestSequence is the first n requests client c sends under seed.
func requestSequence(seed uint64, c, n int) []svcRequest {
	m := newMixer(newRNG(seed, uint64(100+c)))
	seq := make([]svcRequest, n)
	for i := range seq {
		seq[i] = m.next()
	}
	return seq
}

// capture is a RoundTripper that keeps the last response, so the caller can
// read its Server-Timing header, or trailer once the body has been drained.
type capture struct {
	base http.RoundTripper
	last *http.Response
}

func (c *capture) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	c.last = resp
	return resp, err
}

// svcClient is one closed-loop caller.
type svcClient struct {
	cli *client.Client
	cap *capture
}

// serviceMix runs leqad (server.New, default config) behind httptest over
// loopback TCP, with svcClients closed-loop callers sending a seeded mix.
type serviceMix struct {
	seed      uint64
	nets      []netlist
	specOps   []int
	analyses  []*leqa.Analysis
	refs      []string
	ts        *httptest.Server
	transport *http.Transport
	clients   []svcClient

	mu     sync.Mutex
	checks []svcCheck // fresh-param cells to recompute after the window
}

// svcCheck is one fresh-param cell kept for the cross-check.
type svcCheck struct {
	kind    string
	circuit int
	ps      paramSet
	got     float64
}

// svcSample is one completed request.
type svcSample struct {
	kind  string
	ms    float64
	at    time.Duration // completion time since the phase start
	err   error
	st    map[string]float64
	hasST bool
	code  int
	cells int
	gates float64
	large bool
}

func newServiceMix(seed uint64) *serviceMix { return &serviceMix{seed: seed} }

func (w *serviceMix) setup(ctx context.Context) error {
	w.close()
	w.nets, w.analyses, w.refs = nil, nil, nil
	for _, n := range svcCircuits {
		nl, c, err := makeNetlist(n)
		if err != nil {
			return err
		}
		a, err := leqa.Analyze(c)
		if err != nil {
			return err
		}
		w.nets = append(w.nets, nl)
		w.analyses = append(w.analyses, a)
	}
	w.specOps = nil
	for _, n := range svcSpecs {
		c, err := leqa.GenerateFT(n)
		if err != nil {
			return err
		}
		w.specOps = append(w.specOps, c.NumGates())
	}
	srv, err := server.New(server.Config{})
	if err != nil {
		return err
	}
	w.ts = httptest.NewServer(srv)
	w.transport = &http.Transport{MaxConnsPerHost: svcClients, MaxIdleConnsPerHost: svcClients}
	w.clients = make([]svcClient, svcClients)
	for i := range w.clients {
		c := &capture{base: w.transport}
		w.clients[i] = svcClient{cli: client.New(w.ts.URL, &http.Client{Transport: c}), cap: c}
	}
	for _, nl := range w.nets {
		info, err := w.clients[0].cli.PutCircuit(ctx, nl.name, bytes.NewReader(nl.qcb))
		if err != nil {
			return fmt.Errorf("upload %s: %w", nl.name, err)
		}
		w.refs = append(w.refs, info.Digest)
	}
	// Warm-up: every read cell once, and each write kind once.
	pool := paramPool()
	var warm []svcRequest
	for ci := range svcCircuits {
		for pi := range pool {
			warm = append(warm, svcRequest{kind: "byref", circuit: ci, params: pi})
		}
	}
	for si := range svcSpecs {
		for pi := range pool {
			warm = append(warm, svcRequest{kind: "generate", circuit: si, params: pi})
		}
	}
	m := newMixer(newRNG(w.seed, 1))
	for _, k := range []string{"upload", "put", "grid"} {
		r := m.next()
		for r.kind != k {
			r = m.next()
		}
		warm = append(warm, r)
	}
	for _, r := range warm {
		if s := w.do(ctx, w.clients[0], r); s.err != nil {
			return fmt.Errorf("warm-up %s: %w", r.kind, s.err)
		}
	}
	w.checks = nil
	return nil
}

// do sends one request and checks its reply.
func (w *serviceMix) do(ctx context.Context, c svcClient, r svcRequest) svcSample {
	pool := paramPool()
	s := svcSample{kind: r.kind}
	c.cap.last = nil
	var keep []svcCheck
	t := time.Now()
	switch r.kind {
	case "byref", "generate":
		var spec client.CircuitSpec
		var name string
		if r.kind == "byref" {
			spec.Ref, name = w.refs[r.circuit], svcCircuits[r.circuit]
			s.gates = float64(w.nets[r.circuit].ops)
		} else {
			spec.Generate, name = svcSpecs[r.circuit], svcSpecs[r.circuit]
			s.gates = float64(w.specOps[r.circuit])
		}
		s.large = s.gates >= smallOps
		s.cells = 1
		var rec *leqa.ResultRecord
		rec, s.err = c.cli.Estimate(ctx, client.EstimateRequest{CircuitSpec: spec, Params: pool[r.params].spec})
		s.ms = ms(time.Since(t))
		if s.err == nil {
			s.err = checkExpected(name, pool[r.params].label, rec.EstimatedLatencyUs)
		}
	case "upload":
		nl := w.nets[r.circuit]
		s.cells, s.gates = 1, float64(nl.ops)
		var rec *leqa.ResultRecord
		rec, s.err = c.cli.EstimateQC(ctx, nl.name, bytes.NewReader(nl.qcb), r.fresh[0].spec)
		s.ms = ms(time.Since(t))
		if s.err == nil {
			keep = append(keep, svcCheck{r.kind, r.circuit, r.fresh[0], rec.EstimatedLatencyUs})
		}
	case "put":
		nl := w.nets[r.circuit]
		s.gates = float64(nl.ops)
		var info *client.CircuitInfo
		info, s.err = c.cli.PutCircuit(ctx, nl.name, bytes.NewReader(nl.qcb))
		s.ms = ms(time.Since(t))
		if s.err == nil && info.Digest != w.refs[r.circuit] {
			s.err = fmt.Errorf("re-upload of %s stored as %s, first upload as %s", nl.name, info.Digest, w.refs[r.circuit])
		}
	case "grid":
		req := client.GridRequest{}
		for _, ri := range r.rows {
			req.Circuits = append(req.Circuits, client.CircuitSpec{Ref: w.refs[ri]})
			s.gates += float64(w.nets[ri].ops * len(r.fresh))
		}
		s.cells = len(r.rows) * len(r.fresh)
		for _, ps := range r.fresh {
			req.ParamSets = append(req.ParamSets, *ps.spec)
		}
		var rows []leqa.ResultRecord
		s.err = c.cli.Grid(ctx, req, func(rec leqa.ResultRecord) error {
			rows = append(rows, rec)
			return nil
		})
		s.ms = ms(time.Since(t))
		if s.err == nil {
			s.err = w.gridRows(r, rows, &keep)
		}
	}
	var apiErr *client.APIError
	if errors.As(s.err, &apiErr) {
		s.code = apiErr.StatusCode
	}
	if resp := c.cap.last; resp != nil {
		if s.code == 0 {
			s.code = resp.StatusCode
		}
		s.st, s.hasST = serverTiming(resp)
	}
	if len(keep) > 0 {
		w.mu.Lock()
		w.checks = append(w.checks, keep[0])
		w.mu.Unlock()
	}
	return s
}

// gridRows checks a grid reply's shape and keeps one seeded cell.
func (w *serviceMix) gridRows(r svcRequest, rows []leqa.ResultRecord, keep *[]svcCheck) error {
	if len(rows) != len(r.rows)*len(r.fresh) {
		return fmt.Errorf("grid returned %d rows, want %d", len(rows), len(r.rows)*len(r.fresh))
	}
	for _, row := range rows {
		if row.Error != "" {
			return fmt.Errorf("grid row %s: %s", row.Circuit, row.Error)
		}
	}
	i := int(math.Float64bits(r.fresh[0].p.QubitSpeed) % uint64(len(rows)))
	row := rows[i]
	*keep = append(*keep, svcCheck{"grid", r.rows[row.CircuitIndex], r.fresh[row.ParamsIndex], row.EstimatedLatencyUs})
	return nil
}

// run drives the closed loop for d and returns the phase.
func (w *serviceMix) run(ctx context.Context, d time.Duration, rec *recorder, rep *report) phase {
	h0, _ := w.clients[0].cli.Health(ctx)
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	per := make([][]svcSample, len(w.clients))
	for ci := range w.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			m := newMixer(newRNG(w.seed, uint64(100+ci)))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r := m.next()
				op := rec.newOp()
				id := rec.begin(op, 0, "server", "server."+r.kind, r.kind)
				s := w.do(ctx, w.clients[ci], r)
				rec.end(id)
				for name, v := range s.st {
					rec.report(op, id, "program", "program."+name, r.kind, v)
				}
				s.at = time.Since(t0)
				rep.count(r.kind, s.err)
				per[ci] = append(per[ci], s)
			}
		}(ci)
	}
	wg.Wait()
	var ph phase
	var all []svcSample
	for _, p := range per {
		all = append(all, p...)
	}
	// Slices are chunks of svcChunk consecutive completions, timed from the
	// previous chunk's last completion; a final partial chunk is left out.
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	prev := time.Duration(0)
	for i, s := range all {
		c := call{slice: i / svcChunk, ms: s.ms, cells: s.cells, gates: s.gates, large: s.large, err: s.err}
		ph.calls = append(ph.calls, c)
		ph.lat = append(ph.lat, latency(c))
		if (i+1)%svcChunk == 0 {
			ph.slices = append(ph.slices, ms(s.at-prev))
			prev = s.at
		}
	}
	h1, _ := w.clients[0].cli.Health(ctx)
	ph.extra = svcPhase{samples: all, h0: h0, h1: h1}
	return ph
}

// svcPhase is a service-mix phase's samples and the /healthz readings
// around it.
type svcPhase struct {
	samples []svcSample
	h0, h1  *client.Health
}

// latencies returns the sorted latencies of samples of kind; failed
// requests sort last, as missing any latency limit.
func latencies(samples []svcSample, kind string) []float64 {
	var xs []float64
	for _, s := range samples {
		if s.kind != kind {
			continue
		}
		if s.err != nil {
			xs = append(xs, math.Inf(1))
			continue
		}
		xs = append(xs, s.ms)
	}
	return sortedCopy(xs)
}

// layers reports the server's per-kind latencies, the Server-Timing phase
// sums, the unattributed remainder, throttling and the memo and store hit
// ratios, from a traced phase.
func (w *serviceMix) layers(ph phase, rep *report) {
	sp := ph.extra.(svcPhase)
	for _, k := range svcKinds {
		lat := latencies(sp.samples, k.name)
		if len(lat) == 0 {
			lat = []float64{math.Inf(1)}
		}
		rep.set("server."+k.name+"_p50_ms", nearestRank(lat, 0.5), "ms", len(lat))
		q, v := highestSupported(lat, 0.99)
		rep.setNote("server."+k.name+"_p99_ms", v, "ms", len(lat), fmt.Sprintf("p%g", 100*q))
	}
	phases := []string{"queue", "ingest", "analyze", "estimate", "emit"}
	sums := map[string]float64{}
	var n, unattributed, throttled float64
	for _, s := range sp.samples {
		if s.code == http.StatusTooManyRequests {
			throttled++
		}
		if !s.hasST || s.err != nil {
			continue
		}
		n++
		total := 0.0
		for _, p := range phases {
			sums[p] += s.st[p]
			total += s.st[p]
		}
		unattributed += s.ms - total
	}
	for _, p := range phases {
		rep.set("server."+p+"_ms", sums[p]/n, "ms", int(n))
	}
	rep.set("server.unattributed_ms", unattributed/n, "ms", int(n))
	rep.set("server.throttled", throttled, "count", len(sp.samples))
	if sp.h0 != nil && sp.h1 != nil {
		mh := float64(sp.h1.ResultMemo.Hits - sp.h0.ResultMemo.Hits)
		mm := float64(sp.h1.ResultMemo.Misses - sp.h0.ResultMemo.Misses)
		sh := float64(sp.h1.AnalysisStore.Hits - sp.h0.AnalysisStore.Hits)
		sm := float64(sp.h1.AnalysisStore.Misses - sp.h0.AnalysisStore.Misses)
		rep.set("leqa.memo_hit_ratio", mh/(mh+mm), "ratio", int(mh+mm))
		rep.set("leqa.store_hit_ratio", sh/(sh+sm), "ratio", int(sh+sm))
	}
}

// verify recomputes the kept fresh-param cells locally.
func (w *serviceMix) verify(rep *report) {
	w.mu.Lock()
	checks := w.checks
	w.mu.Unlock()
	for _, c := range checks {
		if err := checkAgainst(w.analyses[c.circuit], c.ps, c.got); err != nil {
			rep.recount(c.kind, err)
		}
	}
	rep.note("cross-checked %d fresh-param cells against the single-column estimator", len(checks))
}

func (w *serviceMix) probeInputs() probeInputs {
	return probeInputs{names: svcCircuits, specs: svcSpecs}
}

// coverage is the share of client-side latency the server's own
// Server-Timing phases account for, over the traced phase.
func (w *serviceMix) coverage(_, traced phase, _ probeResult) float64 {
	var covered, whole float64
	for _, s := range traced.extra.(svcPhase).samples {
		if !s.hasST || s.err != nil {
			continue
		}
		for _, v := range s.st {
			covered += v
		}
		whole += s.ms
	}
	return 100 * covered / whole
}

// close stops the server and drops idle connections.
func (w *serviceMix) close() {
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	if w.transport != nil {
		w.transport.CloseIdleConnections()
		w.transport = nil
	}
	runtime.GC()
}

package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// calibIters sizes one calibration round: a dependent integer and float
// chain that neither allocates nor touches memory, so its time tracks only
// the core's speed. About 30 ms on a 2020s x86 core.
const calibIters = 20_000_000

var calibSink uint64

// calibrate times calibIters steps of the fixed loop five times and
// returns the median round time in nanoseconds.
func calibrate() float64 {
	rounds := make([]float64, 5)
	for r := range rounds {
		t := time.Now()
		x, f := uint64(88172645463325252), 1.0
		for i := 0; i < calibIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f = f*1.0000001 + float64(x&1)
		}
		calibSink += x + uint64(f)
		rounds[r] = float64(time.Since(t).Nanoseconds())
	}
	return median(rounds)
}

// hostRecord names what a run's numbers depend on besides the code.
type hostRecord struct {
	NumCPU, GOMAXPROCS      int
	GoVersion, GOOS, GOARCH string
	LEQAEnv                 map[string]string
	CalibNs                 [2]float64 // before and after the run
}

func newHostRecord() hostRecord {
	h := hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		LEQAEnv:    map[string]string{},
	}
	for _, kv := range os.Environ() {
		if k, v, ok := strings.Cut(kv, "="); ok && strings.HasPrefix(k, "LEQA_") {
			h.LEQAEnv[k] = v
		}
	}
	return h
}

// env lists the LEQA_* variables found as name=value, sorted.
func (h hostRecord) env() []string {
	kvs := make([]string, 0, len(h.LEQAEnv))
	for k, v := range h.LEQAEnv {
		kvs = append(kvs, k+"="+v)
	}
	sort.Strings(kvs)
	return kvs
}

// cpuTicks is a reading of the machine-wide CPU counters in /proc/stat:
// ticks the CPUs spent busy, and ticks a hypervisor took from CPUs that
// wanted to run (steal).
type cpuTicks struct{ busy, steal float64 }

// readTicks returns the current counters; zero where /proc/stat is absent.
func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealShare is the share of the CPU time the machine wanted between two
// readings that the hypervisor gave to others. It is machine-wide, so it
// includes other processes' wants; it flags a run, it corrects nothing.
func stealShare(a, b cpuTicks) float64 {
	st, busy := b.steal-a.steal, b.busy-a.busy
	if st <= 0 || st+busy <= 0 {
		return 0
	}
	return st / (st + busy)
}

// rtSample is a runtime/metrics reading.
type rtSample struct {
	allocBytes float64
	gcCycles   float64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{allocBytes: float64(s[0].Value.Uint64()), gcCycles: float64(s[1].Value.Uint64())}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles}
}

// retainedHeapMB forces two collections and reports the bytes still held
// by live heap objects.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

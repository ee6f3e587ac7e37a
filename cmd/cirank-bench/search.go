package main

// Search mode: -mode search measures the online branch-and-bound hot path
// over internal/searchbench's skewed query stream and writes
// BENCH_search.json. Unlike the build grid, per-operation means are not
// enough here — an interactive search path is judged by its tail — so this
// mode hand-rolls the measurement loop instead of using testing.Benchmark:
// every query execution is timed individually, percentiles come from the
// sorted per-query latencies, and allocations per query come from the
// runtime's exact allocation counter around the measured passes.

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cirank/internal/search"
	"cirank/internal/searchbench"
)

const searchDiameter = 4

// runSearchScale measures the live engine at every workers × k cell for one
// dataset scale.
func runSearchScale(dataset string, scale float64, dataSeed, querySeed int64, workerList, kList []int, benchtime string) ([]benchResult, error) {
	w, err := searchbench.Load(dataset, scale, dataSeed, querySeed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "cirank-bench: %s scale %g: %d nodes, %d edges, %d queries (stream %d)\n",
		dataset, scale, w.G.NumNodes(), w.G.NumEdges(), len(w.Queries), len(w.Stream))

	var out []benchResult
	for _, k := range kList {
		for _, workers := range workerList {
			s := search.New(w.M)
			opts := search.Options{K: k, Diameter: searchDiameter, Workers: workers}
			m, err := measureStream(func(i int) error {
				_, _, err := s.TopK(w.Terms(i), opts)
				return err
			}, len(w.Stream), benchtime)
			if err != nil {
				return nil, fmt.Errorf("stage=search scale=%g workers=%d k=%d: %w", scale, workers, k, err)
			}
			out = append(out, benchResult{
				Stage:          "search",
				Scale:          scale,
				Nodes:          w.G.NumNodes(),
				Edges:          w.G.NumEdges(),
				Workers:        workers,
				K:              k,
				N:              m.n,
				NsPerOp:        m.meanNs,
				P50Ns:          m.p50Ns,
				P99Ns:          m.p99Ns,
				QPS:            round2(m.qps),
				AllocsPerQuery: round2(m.allocsPerQuery),
			})
			fmt.Fprintf(os.Stderr, "cirank-bench:   stage=search workers=%d k=%d: p50 %d ns, p99 %d ns, %.0f q/s, %.0f allocs/query (%d queries)\n",
				workers, k, m.p50Ns, m.p99Ns, m.qps, m.allocsPerQuery, m.n)
		}
	}

	// Derived column: the workers=1 reference per k.
	w1 := map[int]int64{}
	for _, r := range out {
		if r.Workers == 1 {
			w1[r.K] = r.NsPerOp
		}
	}
	for i := range out {
		if base := w1[out[i].K]; base > 0 && out[i].NsPerOp > 0 {
			out[i].SpeedupVsW1 = round2(float64(base) / float64(out[i].NsPerOp))
		}
	}
	return out, nil
}

// streamMetrics aggregates one cell's measured passes.
type streamMetrics struct {
	n              int
	meanNs         int64
	p50Ns, p99Ns   int64
	qps            float64
	allocsPerQuery float64
}

// measureStream runs one unmeasured warmup pass over the stream (so pooled
// scratch reaches its steady state, as a long-running server's would), then
// timed passes per the -benchtime budget: "Nx" runs exactly N passes, a
// duration keeps starting passes until the budget is spent (always at least
// one). Each query is timed individually for the percentiles; the allocation
// count is the exact runtime.MemStats.Mallocs delta across the measured
// passes divided by the query count.
func measureStream(run func(i int) error, streamLen int, benchtime string) (streamMetrics, error) {
	var m streamMetrics
	passes, budget, err := parseBenchtime(benchtime)
	if err != nil {
		return m, err
	}
	for i := 0; i < streamLen; i++ {
		if err := run(i); err != nil {
			return m, err
		}
	}

	var lat []time.Duration
	var total time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for pass := 0; passes > 0 && pass < passes || passes == 0 && (pass == 0 || total < budget); pass++ {
		for i := 0; i < streamLen; i++ {
			t0 := time.Now()
			err := run(i)
			d := time.Since(t0)
			if err != nil {
				return m, err
			}
			lat = append(lat, d)
			total += d
		}
	}
	runtime.ReadMemStats(&ms1)

	m.n = len(lat)
	m.meanNs = int64(total) / int64(m.n)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	m.p50Ns = int64(lat[m.n/2])
	m.p99Ns = int64(lat[m.n*99/100])
	m.qps = float64(m.n) / total.Seconds()
	m.allocsPerQuery = float64(ms1.Mallocs-ms0.Mallocs) / float64(m.n)
	return m, nil
}

// parseBenchtime interprets the -benchtime value: "Nx" means N measured
// passes over the stream, anything else is a time.Duration budget.
func parseBenchtime(s string) (passes int, budget time.Duration, err error) {
	if n, ok := strings.CutSuffix(s, "x"); ok {
		passes, err = strconv.Atoi(n)
		if err != nil || passes < 1 {
			return 0, 0, fmt.Errorf("bad -benchtime %q: want a positive pass count like 4x", s)
		}
		return passes, 0, nil
	}
	budget, err = time.ParseDuration(s)
	if err != nil || budget <= 0 {
		return 0, 0, fmt.Errorf("bad -benchtime %q: want 4x or a positive duration like 2s", s)
	}
	return 0, budget, nil
}

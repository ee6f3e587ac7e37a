// Command cirank-bench runs the offline-build benchmark grid (the same
// stages and axes as BenchmarkBuild in the root package, via
// internal/buildbench) and writes the results as JSON, so the repository can
// track the build pipeline's performance trajectory in BENCH_build.json
// instead of in one-off benchmark pastes.
//
// Usage:
//
//	cirank-bench -out BENCH_build.json
//	cirank-bench -dataset dblp -scales 0.25,1 -workers 1,2,4,8 -out -
//	cirank-bench -compare BENCH_build.json -scales 0.25 -out -
//	cirank-bench -mode load -out BENCH_load.json
//	cirank-bench -mode search -out BENCH_search.json
//	cirank-bench -mode serve -out BENCH_serve.json
//	cirank-bench -mode shard -out BENCH_shard.json
//
// -mode load measures engine startup instead of the build grid: for each
// scale it times the cold public-API build, a stream snapshot load
// (cirank.LoadEngine) and a zero-copy mmap open (cirank.Open), writing
// BENCH_load.json under its own schema. The speedup_vs_build column is the
// point of the exercise: how much startup time a snapshot saves.
//
// -mode search measures the online branch-and-bound hot path: for each scale
// it replays internal/searchbench's skewed AOL-style query stream against the
// live pooled engine at every workers × k cell, timing every query
// individually so the report can carry p50/p99 latency, throughput and exact
// allocations per query (see the searchbench package comment for the
// field-by-field format). -benchtime sets the measured budget per cell
// ("4x" = four stream passes, or a duration); -seed is the dataset seed and
// -queryseed the workload seed, both defaulting to the dataset's proven
// pair.
//
// -mode shard measures the sharded scatter-gather coordinator: for each
// scale it partitions the engine at every -shards count (through
// cirank.ShardEngines + NewSharded, radius 2) and replays the search-mode
// stream through the coordinator at every workers × k cell, writing
// BENCH_shard.json. The speedup_vs_shard1 column is the point: throughput
// of N partitioned engines answering concurrently over the single-shard
// coordinator at the same workers and k. Rankings are byte-identical at
// every shard count (certified by the difftest suite), so this grid only
// tracks throughput.
//
// -mode serve measures the HTTP serving stack (internal/server) instead of
// the engine: internal/servebench replays the same skewed stream through a
// live server in the four tracked arms (servebench.TrackedArms) — serving
// caches off, the full stack warmed, the full stack with snapshot hot reloads
// landing mid-load, and the stream spread over three named tenants with
// reloads hitting only one — and writes BENCH_serve.json under servebench's
// schema. In this mode -workers is the closed-loop client count (first entry
// only, default 8), -ks the answer count (first entry only, default 10),
// -scales defaults to 0.25, and -benchtime is the measured window per arm, a
// duration (default 2s).
//
// With -compare the freshly measured grid is diffed against the committed
// baseline cell by cell (matched on stage, scale and workers) and the exit
// status is nonzero when any cell slowed down by more than -tolerance
// (default 3x — generous on purpose, so shared-runner jitter passes and
// only real cliffs fail).
//
// The derived speedup_vs_w1 column (same stage, workers=1) measures the
// parallel fan-out and needs a multi-core machine to exceed 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"cirank/internal/buildbench"
	"cirank/internal/searchbench"
	"cirank/internal/servebench"
)

// reportSchema and loadSchema name the two report document formats (build
// grid and load/startup mode); -compare refuses baselines written under a
// different schema than the current run.
const (
	reportSchema = "cirank/bench-build/v1"
	loadSchema   = "cirank/bench-load/v1"
	searchSchema = "cirank/bench-search/v1"
	shardSchema  = "cirank/bench-shard/v1"
)

// benchResult is one grid cell of the report.
type benchResult struct {
	Stage   string  `json:"stage"`
	Scale   float64 `json:"scale"`
	Nodes   int     `json:"nodes"`
	Edges   int     `json:"edges"`
	Workers int     `json:"workers"`
	// K is the requested answer count on search-mode cells (0 otherwise).
	K       int   `json:"k,omitempty"`
	N       int   `json:"n"`
	NsPerOp int64 `json:"ns_per_op"`
	BytesOp int64 `json:"bytes_per_op"`
	Allocs  int64 `json:"allocs_per_op"`
	// P50Ns/P99Ns/QPS/AllocsPerQuery are set on search-mode cells, where
	// every query is timed individually: latency percentiles, stream
	// throughput, and the exact runtime allocation counter per query.
	P50Ns          int64   `json:"p50_ns,omitempty"`
	P99Ns          int64   `json:"p99_ns,omitempty"`
	QPS            float64 `json:"queries_per_sec,omitempty"`
	AllocsPerQuery float64 `json:"allocs_per_query,omitempty"`
	// SpeedupVsW1 is this stage's workers=1 time divided by this cell's
	// time (1 for the workers=1 cells themselves).
	SpeedupVsW1 float64 `json:"speedup_vs_w1"`
	// SpeedupVsBuild, set on load-mode cells, is the cold build's time at
	// the same scale divided by this cell's time.
	SpeedupVsBuild float64 `json:"speedup_vs_build,omitempty"`
	// SpeedupVsShard1, set on shard-mode cells, is the single-shard
	// coordinator's time at the same scale, workers and k divided by this
	// cell's time — the scatter-gather scaling headline.
	SpeedupVsShard1 float64 `json:"speedup_vs_shard1,omitempty"`
	// HaloDup, set on shard-mode cells, is the partition plan's halo
	// duplication factor: the sum of every shard subgraph's edges divided by
	// the corpus edge count (1.0 = no replication). It is deterministic in
	// (dataset, seed, scale, shard count, strategy), so -compare gates on it
	// structurally: growth past the committed baseline fails with exit code
	// 3, unlike timing cells which only warn within the noise tolerance.
	// The shardN-contiguous cells carry the legacy contiguous split's factor
	// for the same partition as an untimed before/after reference.
	HaloDup float64 `json:"halo_dup_factor,omitempty"`
}

// report is the BENCH_build.json document.
type report struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Dataset    string `json:"dataset"`
	Seed       int64  `json:"seed"`
	// QuerySeed drives the search-mode workload sampler and stream skew.
	QuerySeed int64         `json:"query_seed,omitempty"`
	Note      string        `json:"note"`
	Results   []benchResult `json:"results"`
}

func main() {
	var (
		out       = flag.String("out", "BENCH_build.json", "output path ('-' for stdout)")
		dataset   = flag.String("dataset", "dblp", "dataset to generate: imdb or dblp")
		scales    = flag.String("scales", "0.25,1", "comma-separated dataset scale multipliers")
		workers   = flag.String("workers", "1,2,4,8", "comma-separated worker counts")
		seed      = flag.Int64("seed", 42, "generation seed")
		compare   = flag.String("compare", "", "baseline report to diff against (exit 1 past -tolerance)")
		tolerance = flag.Float64("tolerance", 3.0, "max allowed per-cell slowdown ratio in -compare mode")
		mode      = flag.String("mode", "build", "what to measure: build (stage grid), load (cold build vs stream load vs mmap open), search (online top-k latency), serve (HTTP serving stack) or shard (scatter-gather scaling)")
		ks        = flag.String("ks", "5,10", "comma-separated answer counts k (search and shard modes)")
		shards    = flag.String("shards", "1,2,4", "comma-separated shard counts (shard mode)")
		querySeed = flag.Int64("queryseed", -1, "workload seed (search mode; -1 picks the dataset's proven pair)")
		benchtime = flag.String("benchtime", "4x", "measured budget per search cell: N stream passes (\"4x\") or a duration (\"2s\")")
	)
	flag.Parse()

	schema := reportSchema
	switch *mode {
	case "build":
	case "load":
		schema = loadSchema
	case "search":
		schema = searchSchema
	case "serve":
		schema = servebench.Schema
	case "shard":
		schema = shardSchema
	default:
		fail(fmt.Errorf("bad -mode %q: want build, load, search, serve or shard", *mode))
	}

	// The search, serve and shard grids have their own proven defaults:
	// smaller scales (online search visits a bounded neighbourhood, so the
	// axis is posting density, not graph size), fewer workers, and the
	// dataset's seed pair known to yield a full AOL-style workload. Serve
	// mode reinterprets -workers as the closed-loop client count,
	// -benchtime as the measured window per arm, and takes one k. Shard
	// mode defaults to a small scale plus a larger one — partitioning only
	// has something to divide when the corpus outgrows a single frontier,
	// but CI smoke needs a cheap matching cell — and per-shard workers 1
	// and 2. Explicit flags always win.
	if *mode == "search" || *mode == "serve" || *mode == "shard" {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["scales"] {
			*scales = "0.12,0.25,0.5"
			if *mode == "serve" {
				*scales = "0.25"
			}
			if *mode == "shard" {
				*scales = "0.25,2"
			}
		}
		if !set["workers"] {
			*workers = "1,2,4"
			if *mode == "serve" {
				*workers = "8"
			}
			if *mode == "shard" {
				*workers = "1,2"
			}
		}
		if *mode == "serve" {
			if !set["ks"] {
				*ks = "10"
			}
			if !set["benchtime"] {
				*benchtime = "2s"
			}
		}
		if *mode == "shard" && !set["benchtime"] {
			*benchtime = "2x"
		}
		defData, defQuery := searchbench.DefaultSeeds(*dataset)
		if !set["seed"] {
			*seed = defData
		}
		if *querySeed < 0 {
			*querySeed = defQuery
		}
	}

	var baseline report
	if *compare != "" {
		var err error
		if baseline, err = loadBaseline(*compare, schema); err != nil {
			fail(err)
		}
		if *tolerance <= 1 {
			fail(fmt.Errorf("bad -tolerance %g: must exceed 1", *tolerance))
		}
	}

	scaleList, err := parseFloats(*scales)
	if err != nil {
		fail(fmt.Errorf("bad -scales: %w", err))
	}
	workerList, err := parseInts(*workers)
	if err != nil {
		fail(fmt.Errorf("bad -workers: %w", err))
	}
	kList, err := parseInts(*ks)
	if err != nil {
		fail(fmt.Errorf("bad -ks: %w", err))
	}
	shardList, err := parseInts(*shards)
	if err != nil {
		fail(fmt.Errorf("bad -shards: %w", err))
	}

	if *mode == "serve" {
		dur, err := time.ParseDuration(*benchtime)
		if err != nil || dur <= 0 {
			fail(fmt.Errorf("bad -benchtime %q: serve mode wants a positive duration (e.g. 2s)", *benchtime))
		}
		if err := runServeMode(*out, baseline, *compare != "", *tolerance,
			*dataset, scaleList, *seed, *querySeed, workerList[0], kList[0], dur); err != nil {
			fail(err)
		}
		return
	}

	rep := report{
		Schema:     schema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Dataset:    *dataset,
		Seed:       *seed,
		Note: "speedup_vs_w1 compares against workers=1 of the same stage and scale " +
			"(flat when gomaxprocs=1).",
	}
	if *mode == "load" {
		rep.Note = "Engine startup paths at workers=1: build is the cold public-API build, " +
			"stream-load decodes a v2 snapshot from memory (cirank.LoadEngine), mmap-open " +
			"maps the snapshot file zero-copy (cirank.Open). speedup_vs_build is cold-build " +
			"time over this cell's time at the same scale."
	}
	if *mode == "search" {
		rep.QuerySeed = *querySeed
		rep.Note = "Online top-k over the skewed AOL-style query stream; every query timed " +
			"individually (p50/p99 are per-query latency percentiles, allocs_per_query the " +
			"exact runtime allocation counter). speedup_vs_w1 compares against workers=1 at " +
			"the same scale and k and needs gomaxprocs>1."
	}
	if *mode == "shard" {
		rep.QuerySeed = *querySeed
		rep.Note = "Sharded scatter-gather coordinator over the skewed AOL-style query stream; " +
			"stage shardN is the coordinator over N radius-2 partitions (shard1 included, so " +
			"the coordinator overhead is in every cell). speedup_vs_shard1 compares against " +
			"the single-shard coordinator at the same workers and k; the scatter runs shards " +
			"concurrently, so exceeding 1 needs gomaxprocs>1 and halos smaller than the " +
			"corpus. halo_dup_factor is the plan's summed shard edges over corpus edges " +
			"(deterministic, structurally gated by -compare: growth past the baseline exits 3); " +
			"the untimed shardN-contiguous cells carry the legacy contiguous split's factor as " +
			"the before-arm. Rankings are byte-identical at every shard count and strategy."
	}

	for _, scale := range scaleList {
		if *mode == "load" {
			cells, err := runLoadScale(*dataset, scale, *seed)
			if err != nil {
				fail(err)
			}
			rep.Results = append(rep.Results, cells...)
			continue
		}
		if *mode == "search" {
			cells, err := runSearchScale(*dataset, scale, *seed, *querySeed, workerList, kList, *benchtime)
			if err != nil {
				fail(err)
			}
			rep.Results = append(rep.Results, cells...)
			continue
		}
		if *mode == "shard" {
			cells, err := runShardScale(*dataset, scale, *seed, *querySeed, shardList, workerList, kList, *benchtime)
			if err != nil {
				fail(err)
			}
			rep.Results = append(rep.Results, cells...)
			continue
		}
		w, err := buildbench.Load(*dataset, scale, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "cirank-bench: %s scale %g: %d nodes, %d edges\n",
			*dataset, scale, w.G.NumNodes(), w.G.NumEdges())
		rep.Results = append(rep.Results, runScale(w, scale, workerList)...)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fail(err)
	} else {
		fmt.Fprintf(os.Stderr, "cirank-bench: wrote %s (%d results)\n", *out, len(rep.Results))
	}

	if *compare != "" {
		if baseline.Dataset != rep.Dataset || baseline.Seed != rep.Seed {
			fmt.Fprintf(os.Stderr, "cirank-bench: warning: baseline is %s/seed %d, this run is %s/seed %d\n",
				baseline.Dataset, baseline.Seed, rep.Dataset, rep.Seed)
		}
		c := compareReports(baseline, rep)
		c.render(os.Stderr, *tolerance)
		// Structural regressions exit with a distinct code so CI can gate
		// hard on them while leaving timing cells warn-only on noisy runners.
		if sreg := c.structuralRegressions(); len(sreg) > 0 {
			fmt.Fprintf(os.Stderr, "cirank-bench: error: %d cells grew their halo duplication factor past the baseline\n", len(sreg))
			os.Exit(3)
		}
		if reg := c.regressions(*tolerance); len(reg) > 0 {
			fail(fmt.Errorf("%d cells regressed past %gx", len(reg), *tolerance))
		}
		fmt.Fprintln(os.Stderr, "cirank-bench: no cell regressed past the tolerance")
	}
}

// runScale measures every stage × worker cell for one loaded workload and
// fills in the derived speedup column.
func runScale(w *buildbench.Workload, scale float64, workerList []int) []benchResult {
	var out []benchResult
	cell := func(stage string, workers int, f func(b *testing.B)) benchResult {
		r := testing.Benchmark(f)
		res := benchResult{
			Stage:   stage,
			Scale:   scale,
			Nodes:   w.G.NumNodes(),
			Edges:   w.G.NumEdges(),
			Workers: workers,
			N:       r.N,
			NsPerOp: r.NsPerOp(),
			BytesOp: r.AllocedBytesPerOp(),
			Allocs:  r.AllocsPerOp(),
		}
		fmt.Fprintf(os.Stderr, "cirank-bench:   stage=%s workers=%d: %d ns/op (%d iters)\n",
			stage, workers, res.NsPerOp, res.N)
		return res
	}

	ctx := context.Background()
	for _, workers := range workerList {
		workers := workers
		out = append(out, cell("pipeline", workers, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bld, err := w.NewBuilder()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := w.BuildPipeline(ctx, bld, workers); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	for _, st := range buildbench.Stages() {
		if st.Quadratic && scale > 1 {
			continue
		}
		for _, workers := range workerList {
			st, workers := st, workers
			out = append(out, cell(st.Name, workers, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := st.Run(ctx, w, workers); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
	}

	// Derived column: the per-stage workers=1 reference.
	w1 := map[string]int64{}
	for _, r := range out {
		if r.Workers == 1 {
			w1[r.Stage] = r.NsPerOp
		}
	}
	for i := range out {
		if ref := w1[out[i].Stage]; ref > 0 && out[i].NsPerOp > 0 {
			out[i].SpeedupVsW1 = round2(float64(ref) / float64(out[i].NsPerOp))
		}
	}
	return out
}

func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("worker count %q must be a positive integer", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fail(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "cirank-bench:", err)
	os.Exit(1)
}

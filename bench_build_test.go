package cirank_test

// The offline-build benchmark grid: dataset size × worker count × pipeline
// stage, shared with cmd/cirank-bench through internal/buildbench so `go test
// -bench` and the tracked BENCH_build.json measure the same thing. This file
// lives in package cirank_test because buildbench imports the root package (a
// cirank-internal benchmark would be an import cycle).
//
// The speedup axis is workers: N-worker vs 1-worker wall clock on the same
// stage. It needs GOMAXPROCS > 1; on a single-CPU box the grid still
// certifies that extra workers cost nothing.
//
// Run with `make bench-json` to regenerate BENCH_build.json.

import (
	"context"
	"fmt"
	"testing"

	"cirank"
	"cirank/internal/buildbench"
)

// benchScales are the benchmarked dataset sizes (multipliers on the default
// DBLP table counts). Quadratic-space stages are gated to scales ≤ 1.
var benchScales = []struct {
	name  string
	scale float64
}{
	{"small", 0.25},
	{"medium", 1.0},
	{"large", 2.5},
}

var benchWorkers = []int{1, 2, 4, 8}

const benchSeed = 42

func BenchmarkBuild(b *testing.B) {
	for _, sc := range benchScales {
		w, err := buildbench.Load("dblp", sc.scale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("stage=pipeline/data=dblp-%s", sc.name), func(b *testing.B) {
			for _, workers := range benchWorkers {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					benchPipeline(b, w, workers)
				})
			}
		})
		for _, st := range buildbench.Stages() {
			if st.Quadratic && sc.scale > 1 {
				continue
			}
			b.Run(fmt.Sprintf("stage=%s/data=dblp-%s", st.Name, sc.name), func(b *testing.B) {
				for _, workers := range benchWorkers {
					b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
						benchStage(b, w, st, workers)
					})
				}
			})
		}
	}
}

func benchStage(b *testing.B, w *buildbench.Workload, st buildbench.Stage, workers int) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if err := st.Run(ctx, w, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPipeline(b *testing.B, w *buildbench.Workload, workers int) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		// Builders are single-use; the replay is setup, not pipeline work.
		b.StopTimer()
		bld, err := w.NewBuilder()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		eng, err := w.BuildPipeline(ctx, bld, workers)
		if err != nil {
			b.Fatal(err)
		}
		benchEngine = eng
	}
}

// benchEngine keeps the built engine alive so the pipeline benchmark cannot
// be elided.
var benchEngine *cirank.Engine

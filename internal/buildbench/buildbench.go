// Package buildbench prepares datasets and stage runners for the offline
// build benchmarks. The root package's BenchmarkBuild and the cmd/cirank-bench
// JSON emitter share this code, so the grid they measure — dataset scale ×
// worker count × pipeline stage — stays one definition. The stages are the
// full pipeline, the text index, and the naive and star path indexes; every
// one honors the worker count. The per-source traversal they share is gated
// allocation-free by internal/pathindex's own tests.
package buildbench

import (
	"context"
	"fmt"

	"cirank"
	"cirank/internal/datagen"
	"cirank/internal/graph"
	"cirank/internal/pagerank"
	"cirank/internal/pathindex"
	"cirank/internal/relational"
	"cirank/internal/rwmp"
	"cirank/internal/textindex"
)

// Workload is a generated dataset prepared up to the inputs of the indexed
// stages: the data graph, the dampening rates (which require importance, so
// PageRank has already run) and the star-node set. Stage runners reuse these
// inputs so each benchmark times exactly one stage.
type Workload struct {
	// Dataset is "dblp" or "imdb".
	Dataset string
	// Scale multiplies the dataset's default table sizes.
	Scale float64
	// Seed is the generation seed.
	Seed int64
	// MaxDepth is the path-index horizon the star-index stage is measured
	// at: 6, the deepest served diameter.
	MaxDepth int

	// DS is the generated relational dataset, kept so NewBuilder can replay
	// it through the public API.
	DS *datagen.Dataset
	// G is the data graph.
	G *graph.Graph
	// Damp holds the per-node dampening rates (a path-index build input).
	Damp []float64
	// IsStar marks the star nodes (a path-index build input).
	IsStar []bool
}

// Load generates the dataset and precomputes the stage inputs. The dataset
// name is "dblp" or "imdb"; scale multiplies the default table sizes.
func Load(dataset string, scale float64, seed int64) (*Workload, error) {
	var (
		ds  *datagen.Dataset
		err error
	)
	switch dataset {
	case "dblp":
		ds, err = datagen.GenerateDBLP(datagen.DefaultDBLPConfig(seed).Scale(scale))
	case "imdb":
		ds, err = datagen.GenerateIMDB(datagen.DefaultIMDBConfig(seed).Scale(scale))
	default:
		return nil, fmt.Errorf("buildbench: unknown dataset %q (want dblp or imdb)", dataset)
	}
	if err != nil {
		return nil, err
	}
	g, _, err := relational.BuildGraph(ds.DB, ds.Weights, 1.0)
	if err != nil {
		return nil, err
	}
	pr, err := pagerank.Compute(g, pagerank.DefaultOptions())
	if err != nil {
		return nil, err
	}
	damp, err := rwmp.DampRates(pr.Scores, rwmp.DefaultParams())
	if err != nil {
		return nil, err
	}
	return &Workload{
		Dataset:  dataset,
		Scale:    scale,
		Seed:     seed,
		MaxDepth: 6,
		DS:       ds,
		G:        g,
		Damp:     damp,
		IsStar:   relational.StarNodeSet(g, relational.StarTables(ds.Schema)),
	}, nil
}

// NewBuilder replays the workload's tuples and links through the public
// builder API, exactly as an embedding application (or cmd/cirank-server)
// would. Builders are single-use, so the full-pipeline benchmark calls this
// once per iteration, outside the timed region.
func (w *Workload) NewBuilder() (*cirank.Builder, error) {
	var b *cirank.Builder
	switch w.Dataset {
	case "imdb":
		b = cirank.NewIMDBBuilder()
	default:
		b = cirank.NewDBLPBuilder()
	}
	for _, table := range w.DS.Schema.Tables {
		for _, key := range w.DS.DB.Keys(table) {
			t, ok := w.DS.DB.Lookup(table, key)
			if !ok {
				return nil, fmt.Errorf("buildbench: dataset lookup lost %s/%s", table, key)
			}
			if err := b.InsertEntity(table, t.Key, t.Text, t.EntityKey); err != nil {
				return nil, err
			}
		}
	}
	var relErr error
	w.DS.DB.EachLink(func(rel relational.Relationship, fromKey, toKey string) {
		if relErr == nil {
			relErr = b.Relate(rel.Name, fromKey, toKey)
		}
	})
	if relErr != nil {
		return nil, relErr
	}
	return b, nil
}

// BuildPipeline runs the whole offline pipeline (graph, text index, PageRank,
// star index at MaxDepth) through the public BuildContext with the given
// fan-out.
func (w *Workload) BuildPipeline(ctx context.Context, b *cirank.Builder, workers int) (*cirank.Engine, error) {
	cfg := cirank.DefaultConfig()
	cfg.Workers = workers
	cfg.IndexDepth = w.MaxDepth
	return b.BuildContext(ctx, cfg)
}

// Stage is one benchmarked unit of the offline pipeline.
type Stage struct {
	// Name keys the stage in benchmark output and BENCH_build.json.
	Name string
	// Quadratic marks O(|V|²)-space stages (the naive index), which the
	// grids gate to the smaller scales.
	Quadratic bool
	// Run executes the stage once. Implementations discard the built
	// artifact; the benchmark harness keeps a liveness sink.
	Run func(ctx context.Context, w *Workload, workers int) error
}

// Stages returns the benchmarked stages in display order. The full pipeline
// is not listed here because it needs a fresh Builder per run; benchmark
// drivers handle it separately via NewBuilder + BuildPipeline.
func Stages() []Stage {
	return []Stage{
		{Name: "text", Run: func(ctx context.Context, w *Workload, workers int) error {
			ix, err := textindex.BuildContext(ctx, w.G, workers)
			sinkAny(ix)
			return err
		}},
		{Name: "star", Run: func(ctx context.Context, w *Workload, workers int) error {
			ix, err := pathindex.BuildStarContext(ctx, w.G, w.Damp, w.IsStar, w.MaxDepth, workers)
			sinkAny(ix)
			return err
		}},
		{Name: "naive", Quadratic: true, Run: func(ctx context.Context, w *Workload, workers int) error {
			ix, err := pathindex.BuildNaiveContext(ctx, w.G, w.Damp, w.MaxDepth, workers)
			sinkAny(ix)
			return err
		}},
	}
}

// sink keeps built artifacts observably alive so the compiler cannot elide a
// benchmarked build.
var sink any

func sinkAny(v any) { sink = v }

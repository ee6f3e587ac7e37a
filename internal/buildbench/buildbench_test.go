package buildbench

import (
	"context"
	"errors"
	"testing"
)

// tinyScale keeps the quadratic naive stage cheap while still generating
// every table of the dataset.
const tinyScale = 0.05

// TestStagesRun drives every benchmarked unit once per worker count outside
// the benchmark harness, so a stage that errors or a pipeline that stops
// building fails the plain test suite instead of only the bench grids.
func TestStagesRun(t *testing.T) {
	w, err := Load("dblp", tinyScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if w.G.NumNodes() == 0 || len(w.Damp) != w.G.NumNodes() || len(w.IsStar) != w.G.NumNodes() {
		t.Fatalf("workload inputs inconsistent: %d nodes, %d damp, %d star flags",
			w.G.NumNodes(), len(w.Damp), len(w.IsStar))
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		for _, st := range Stages() {
			if err := st.Run(ctx, w, workers); err != nil {
				t.Errorf("stage %s workers=%d: %v", st.Name, workers, err)
			}
		}
		b, err := w.NewBuilder()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := w.BuildPipeline(ctx, b, workers)
		if err != nil {
			t.Fatalf("pipeline workers=%d: %v", workers, err)
		}
		if eng.NumNodes() != w.G.NumNodes() {
			t.Errorf("pipeline workers=%d: engine has %d nodes, workload graph %d",
				workers, eng.NumNodes(), w.G.NumNodes())
		}
		if kind := eng.BuildStats().PathIndexMem.Kind; kind != "star" {
			t.Errorf("pipeline workers=%d: path index kind %q, want star", workers, kind)
		}
		eng.Close()
	}
}

func TestStagesCancelled(t *testing.T) {
	w, err := Load("dblp", tinyScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		for _, st := range Stages() {
			if err := st.Run(ctx, w, workers); !errors.Is(err, context.Canceled) {
				t.Errorf("stage %s workers=%d on a cancelled context: err = %v, want context.Canceled",
					st.Name, workers, err)
			}
		}
		b, err := w.NewBuilder()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.BuildPipeline(ctx, b, workers); err == nil {
			t.Errorf("pipeline workers=%d built on a cancelled context", workers)
		}
	}
}

func TestLoadDatasets(t *testing.T) {
	for _, dataset := range []string{"dblp", "imdb"} {
		w, err := Load(dataset, tinyScale, 42)
		if err != nil {
			t.Fatalf("%s: %v", dataset, err)
		}
		if _, err := w.NewBuilder(); err != nil {
			t.Errorf("%s: replay through the public builder: %v", dataset, err)
		}
	}
	if _, err := Load("nosuch", tinyScale, 42); err == nil {
		t.Error("Load accepted an unknown dataset")
	}
}

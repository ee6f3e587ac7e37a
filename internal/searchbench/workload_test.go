package searchbench

import (
	"reflect"
	"testing"
)

// TestLoadDeterministic pins what BENCH_search.json and the serving
// benchmarks rely on: identical arguments produce the identical workload, so
// runs on different commits replay the same queries in the same order.
func TestLoadDeterministic(t *testing.T) {
	for _, dataset := range []string{"dblp", "imdb"} {
		dataSeed, querySeed := DefaultSeeds(dataset)
		a, err := Load(dataset, 0.12, dataSeed, querySeed)
		if err != nil {
			t.Fatalf("%s: %v", dataset, err)
		}
		b, err := Load(dataset, 0.12, dataSeed, querySeed)
		if err != nil {
			t.Fatalf("%s: %v", dataset, err)
		}
		if len(a.Queries) == 0 || len(a.Stream) != streamLength {
			t.Fatalf("%s: %d queries, stream of %d; want queries and a stream of %d",
				dataset, len(a.Queries), len(a.Stream), streamLength)
		}
		if !reflect.DeepEqual(a.Queries, b.Queries) || !reflect.DeepEqual(a.Stream, b.Stream) {
			t.Errorf("%s: two loads with identical seeds produced different workloads", dataset)
		}
		if a.G.NumNodes() != b.G.NumNodes() || a.G.NumEdges() != b.G.NumEdges() {
			t.Errorf("%s: graph sizes differ between identical loads", dataset)
		}
		for i := 0; i < 2*len(a.Stream); i++ {
			if got, want := a.Terms(i), a.Queries[a.Stream[i%len(a.Stream)]]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Terms(%d) = %v, want %v", dataset, i, got, want)
			}
		}
		// StreamPlan hands the serving benchmarks this exact stream.
		if nq, stream := StreamPlan(querySeed); nq != workloadQueries || !reflect.DeepEqual(stream, a.Stream) {
			t.Errorf("%s: StreamPlan(%d) disagrees with the loaded workload's stream", dataset, querySeed)
		}
	}
}

func TestStreamPlanDeterministic(t *testing.T) {
	nq, a := StreamPlan(13)
	_, b := StreamPlan(13)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("StreamPlan is not deterministic in its seed")
	}
	if _, c := StreamPlan(14); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the same stream")
	}
	counts := make([]int, nq)
	for _, q := range a {
		if q < 0 || q >= nq {
			t.Fatalf("stream index %d outside [0, %d)", q, nq)
		}
		counts[q]++
	}
	// Zipf skew: the most popular query dominates the least popular one.
	if counts[0] <= counts[nq-1] {
		t.Errorf("stream is not skewed toward query 0: counts %v", counts)
	}
}

func TestLoadUnknownDataset(t *testing.T) {
	if _, err := Load("nosuch", 0.12, 1, 1); err == nil {
		t.Fatal("Load accepted an unknown dataset")
	}
}

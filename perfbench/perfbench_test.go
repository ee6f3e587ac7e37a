package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json these tests read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyRun(t *testing.T, workload string, trace bool, fault string) (result, string) {
	t.Helper()
	var out strings.Builder
	res, err := run(options{
		workload: workload,
		seed:     3,
		seconds:  300 * time.Millisecond,
		trace:    trace,
		dir:      t.TempDir(),
		sz:       tinySizes,
		fault:    fault,
	}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestTinyRunsPrintEveryMetric runs every workload at tiny sizes, untraced
// and traced, and checks that each prints every metric of BENCHMARK.json by
// name with its unit, and passes its output check.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, out := tinyRun(t, w.name, trace, "")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			for _, m := range spec.EndToEnd {
				if !strings.Contains(out, m.Name) || !strings.Contains(out, " "+m.Unit+" ") {
					t.Errorf("%s trace=%t: report lacks %s in %s", w.name, trace, m.Name, m.Unit)
				}
			}
			for _, s := range []string{"nodes", "edges", "distinct queries", "requests", "snapshot bytes", "n="} {
				if !strings.Contains(out, s) {
					t.Errorf("%s trace=%t: report lacks %q", w.name, trace, s)
				}
			}
		}
	}
}

// TestCorruptedRankingFailsRun shows the output check is not vacuous: a
// served answer whose top score was altered must fail the run.
func TestCorruptedRankingFailsRun(t *testing.T) {
	for _, w := range []string{"hot-zipf", "cold-unique"} {
		res, out := tinyRun(t, w, false, "corrupt")
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted ranking passed the check (failed=%d)\n%s", w, res.Failed, out)
		}
		if !strings.Contains(out, "1 mismatched") {
			t.Errorf("%s: report does not count the mismatch\n%s", w, out)
		}
	}
}

// TestStaleGenerationFailsRun shows the staleness check is not vacuous: a
// response claiming a generation older than the last completed reload must
// fail the run.
func TestStaleGenerationFailsRun(t *testing.T) {
	for _, w := range []string{"reload-mix", "sharded-unique"} {
		res, out := tinyRun(t, w, false, "stale")
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: stale generation passed the check (failed=%d)\n%s", w, res.Failed, out)
		}
		if !strings.Contains(out, "1 stale") {
			t.Errorf("%s: report does not count the stale answer\n%s", w, out)
		}
	}
}

// TestInputsDeterministic checks that a seed fixes every input.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := makeInputs(w, 5, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, 5, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(a.queries, "|") != strings.Join(b.queries, "|") || len(a.schedule) != len(b.schedule) {
			t.Fatalf("%s: inputs differ between two generations from one seed", w.name)
		}
		for i := range a.schedule {
			if a.schedule[i] != b.schedule[i] {
				t.Fatalf("%s: schedule differs at %d", w.name, i)
			}
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cirank/internal/servebench"
)

// Serve mode: -mode serve measures the HTTP serving stack instead of the
// engine — the four tracked arms of servebench.TrackedArms (baseline with
// the result cache and coalescing off, the full stack warmed, the full
// stack with hot reloads landing mid-load, and the mixed-tenant split with
// reloads hitting only t0), written under servebench's schema so
// BENCH_serve.json joins the tracked trajectories.
// The report document comes straight from internal/servebench; this file
// only adapts it to the shared -out/-compare plumbing.

// runServeMode measures the serve arms for every scale and writes the
// report; when cmp is set the result is also diffed against the committed
// baseline with the same cell matching as every other mode.
func runServeMode(out string, baseline report, cmp bool, tolerance float64,
	dataset string, scales []float64, dataSeed, querySeed int64,
	clients, k int, duration time.Duration) error {
	if clients < 1 {
		return fmt.Errorf("serve mode: client count (the first -workers entry) must be positive")
	}
	dir, err := os.MkdirTemp("", "cirank-serve-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep := servebench.NewReport(dataset, dataSeed, querySeed)
	progress := func(line string) { fmt.Fprintf(os.Stderr, "cirank-bench: %s\n", line) }
	for _, scale := range scales {
		f, err := servebench.NewFixture(dir, dataset, scale, dataSeed, querySeed, k)
		if err != nil {
			return err
		}
		progress(fmt.Sprintf("%s scale %g: %d nodes, %d edges, %d distinct queries",
			dataset, scale, f.Nodes, f.Edges, len(f.Queries)))
		cells, err := f.RunArms(servebench.TrackedArms(clients, duration), k, progress)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, cells...)
	}

	if err := rep.Write(out); err != nil {
		return err
	}
	if out != "-" {
		fmt.Fprintf(os.Stderr, "cirank-bench: wrote %s (%d results)\n", out, len(rep.Results))
	}

	if cmp {
		cur, err := asBenchReport(rep)
		if err != nil {
			return err
		}
		c := compareReports(baseline, cur)
		c.render(os.Stderr, tolerance)
		if reg := c.regressions(tolerance); len(reg) > 0 {
			return fmt.Errorf("%d cells regressed past %gx", len(reg), tolerance)
		}
		fmt.Fprintln(os.Stderr, "cirank-bench: no cell regressed past the tolerance")
	}
	return nil
}

// asBenchReport projects a servebench report onto the shared comparison
// type: the cell-key fields (stage, scale, workers, k) and ns_per_op share
// JSON names across both documents, so a marshal round-trip is the whole
// adapter.
func asBenchReport(r *servebench.Report) (report, error) {
	var out report
	buf, err := json.Marshal(r)
	if err != nil {
		return out, err
	}
	err = json.Unmarshal(buf, &out)
	return out, err
}

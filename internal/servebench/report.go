package servebench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Schema identifies the BENCH_serve.json document format; cirank-bench
// -compare refuses baselines written under a different schema.
const Schema = "cirank/bench-serve/v1"

// Cell is one report entry: an arm measured against one fixture. Field
// names match the other tracked trajectories so cirank-bench's comparison
// machinery diffs serve cells like any grid cell (keyed on stage, scale,
// workers, k).
type Cell struct {
	// Stage names the measured arm ("serve-nocache", "serve-cached",
	// "serve-reload" or "serve-tenants").
	Stage string `json:"stage"`
	// Scale is the dataset scale multiplier; Nodes and Edges the resulting
	// graph size.
	Scale float64 `json:"scale"`
	// Nodes is the served graph's node count.
	Nodes int `json:"nodes"`
	// Edges is the served graph's edge count.
	Edges int `json:"edges"`
	// Workers is the closed-loop client count (the cell-key axis shared
	// with the engine grids).
	Workers int `json:"workers"`
	// K is the per-query answer count.
	K int `json:"k"`
	// N is the number of completed requests in the measured window.
	N int `json:"n"`
	// NsPerOp is the mean per-request wall-clock latency through HTTP.
	NsPerOp int64 `json:"ns_per_op"`
	// P50Ns is the median per-request latency.
	P50Ns int64 `json:"p50_ns"`
	// P99Ns is the 99th-percentile per-request latency.
	P99Ns int64 `json:"p99_ns"`
	// QPS is sustained OK completions per second over the window.
	QPS float64 `json:"queries_per_sec"`
	// CacheHitRate is the fraction of OK responses served by the result
	// cache (from the envelope's stats.source).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CoalesceRate is the fraction of OK responses that rode another
	// request's flight.
	CoalesceRate float64 `json:"coalesce_rate"`
	// Rejected counts 429 load sheds (deliberate, not failures).
	Rejected int64 `json:"rejected"`
	// Failed counts transport errors and other non-200 statuses.
	Failed int64 `json:"failed"`
	// Stale counts generation-floor violations (always zero unless the
	// serving stack is broken).
	Stale int64 `json:"stale"`
	// Reloads counts hot reloads completed inside the window.
	Reloads int64 `json:"reloads"`
	// Tenants is the named-tenant count of a multi-tenant arm (absent on
	// single-tenant cells).
	Tenants int `json:"tenants,omitempty"`
	// ReloadTenant names the one tenant a multi-tenant arm's reloads
	// hot-swapped.
	ReloadTenant string `json:"reload_tenant,omitempty"`
	// StaleOther counts stale answers on tenants other than the reloaded
	// one — the reload-isolation invariant of the serve-tenants arm keeps
	// it at zero.
	StaleOther int64 `json:"stale_other,omitempty"`
	// FailedOther counts failed requests on tenants other than the
	// reloaded one; like StaleOther it must stay zero.
	FailedOther int64 `json:"failed_other,omitempty"`
	// SpeedupVsNoCache is this cell's queries_per_sec over the
	// serve-nocache arm's at the same scale, workers and k.
	SpeedupVsNoCache float64 `json:"speedup_vs_nocache,omitempty"`
}

// Report is the BENCH_serve.json document; the header mirrors the other
// tracked benchmark reports.
type Report struct {
	// Schema is always the package's Schema constant.
	Schema string `json:"schema"`
	// GoVersion records the toolchain the run was built with.
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the scheduler width during the run.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is the machine's logical CPU count.
	NumCPU int `json:"num_cpu"`
	// Dataset is the generated dataset kind ("dblp" or "imdb").
	Dataset string `json:"dataset"`
	// Seed is the dataset generation seed.
	Seed int64 `json:"seed"`
	// QuerySeed drove the workload sampler and stream skew.
	QuerySeed int64 `json:"query_seed"`
	// Note explains the columns to a human reading the JSON.
	Note string `json:"note"`
	// Results holds one Cell per measured arm × fixture.
	Results []Cell `json:"results"`
}

// NewReport assembles the report header for cells measured against
// fixtures generated with the given dataset and seeds.
func NewReport(dataset string, dataSeed, querySeed int64) *Report {
	return &Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Dataset:    dataset,
		Seed:       dataSeed,
		QuerySeed:  querySeed,
		Note: "HTTP serving stack over the skewed AOL-style stream; workers is the " +
			"closed-loop client count. serve-nocache evaluates every request (result " +
			"cache and coalescing off), serve-cached runs the full stack warmed, " +
			"serve-reload hot-reloads the snapshot during load — its stale and failed " +
			"columns must be zero. serve-tenants serves the snapshot as several named " +
			"tenants and hot-reloads only reload_tenant — stale/failed must stay zero " +
			"on every tenant (stale_other/failed_other count the non-reloaded ones). " +
			"speedup_vs_nocache is sustained QPS over the serve-nocache arm at the " +
			"same scale/workers/k.",
	}
}

// Write marshals the report to path ("-" for stdout).
func (r *Report) Write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// TrackedArms returns the standard arm set of the tracked trajectory:
// baseline without the serving stack's caches, the full stack warmed, the
// full stack with reloads landing mid-load, and the mixed-tenant stream with
// reloads hot-swapping exactly one tenant.
func TrackedArms(clients int, duration time.Duration) []Arm {
	return []Arm{
		{Stage: "serve-nocache", CacheOff: true, CoalesceOff: true, Clients: clients, Duration: duration},
		{Stage: "serve-cached", Warm: true, Clients: clients, Duration: duration},
		{Stage: "serve-reload", Warm: true, Clients: clients, Duration: duration, ReloadEvery: duration / 4},
		{Stage: "serve-tenants", Warm: true, Clients: clients, Duration: duration, ReloadEvery: duration / 4, Tenants: 3, ReloadTenant: "t0"},
	}
}

// Cell converts one arm's result to its report entry.
func (f *Fixture) Cell(arm Arm, k int, res Result) Cell {
	c := Cell{
		Stage:    arm.Stage,
		Scale:    f.Scale,
		Nodes:    f.Nodes,
		Edges:    f.Edges,
		Workers:  arm.Clients,
		K:        k,
		N:        int(res.Requests),
		NsPerOp:  res.MeanNs,
		P50Ns:    res.P50Ns,
		P99Ns:    res.P99Ns,
		QPS:      round2(res.QPS),
		Rejected: res.Rejected,
		Failed:   res.Failed,
		Stale:    res.Stale,
		Reloads:  res.Reloads,
	}
	if arm.Tenants > 1 {
		c.Tenants = arm.Tenants
		c.ReloadTenant = arm.ReloadTenant
		c.StaleOther = res.StaleOther
		c.FailedOther = res.FailedOther
	}
	if res.OK > 0 {
		c.CacheHitRate = round4(float64(res.CacheHits) / float64(res.OK))
		c.CoalesceRate = round4(float64(res.Coalesced) / float64(res.OK))
	}
	return c
}

// RunArms measures every arm against the fixture and fills the derived
// speedup column from the serve-nocache reference.
func (f *Fixture) RunArms(arms []Arm, k int, progress func(string)) ([]Cell, error) {
	var cells []Cell
	for _, arm := range arms {
		if progress != nil {
			progress(fmt.Sprintf("%s scale %g: arm %s (%d clients, %s)",
				f.Dataset, f.Scale, arm.Stage, arm.Clients, arm.Duration))
		}
		res, err := f.Run(arm)
		if err != nil {
			return nil, err
		}
		cells = append(cells, f.Cell(arm, k, res))
		if progress != nil {
			progress(fmt.Sprintf("  %s: %.0f q/s, p50 %v, p99 %v, hit %.0f%%, coalesce %.1f%%, %d rejected, %d failed, %d stale, %d reloads",
				arm.Stage, res.QPS, time.Duration(res.P50Ns), time.Duration(res.P99Ns),
				100*float64(res.CacheHits)/nz(res.OK), 100*float64(res.Coalesced)/nz(res.OK),
				res.Rejected, res.Failed, res.Stale, res.Reloads))
		}
	}
	type key struct {
		workers, k int
	}
	base := map[key]float64{}
	for _, c := range cells {
		if c.Stage == "serve-nocache" {
			base[key{c.Workers, c.K}] = c.QPS
		}
	}
	for i := range cells {
		if cells[i].Stage == "serve-nocache" {
			continue
		}
		if b := base[key{cells[i].Workers, cells[i].K}]; b > 0 && cells[i].QPS > 0 {
			cells[i].SpeedupVsNoCache = round2(cells[i].QPS / b)
		}
	}
	return cells, nil
}

func nz(v int64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }

func round4(f float64) float64 { return float64(int64(f*10000+0.5)) / 10000 }

// Command perfbench is the end-to-end benchmark of the served /v1 search
// path. It generates a dblp corpus and a query workload from a seed, builds
// the engine through cirank.Builder with DefaultConfig, saves and opens the
// snapshot, and serves it with server.New and the default server.Config —
// what cirank-server -snapshot runs — behind a loopback httptest listener.
// Two client connections then drive /v1/search in a closed loop for the
// given number of seconds. Afterwards every served ranking is compared with
// a direct Engine.SearchTermsContext on a separately opened engine.
//
//	bash perfbench/run.sh --workload cold-unique --seed 3 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics,
// measured from spans the benchmark wraps around its own calls into each
// layer (written to <dir>/traces/). The exit code is nonzero when any
// served answer is stale or differs from the direct engine's.
// BENCHMARK.json at the repository root names the workloads and metrics;
// perfbench/DESIGN.md records which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cirank"
	"cirank/internal/server"
)

// clients is the closed loop's connection count: one per CPU of the
// two-CPU machine the benchmark was sized on.
const clients = 2

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// dir holds the run's snapshots and the trace output.
	dir string
	sz  sizes
	// fault makes the served stack misbehave on purpose ("corrupt" or
	// "stale"), so the benchmark's tests can show the check catches it.
	fault string
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{sz: fullSizes}
	var secs float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: hot-zipf, cold-unique, reload-mix or sharded-unique")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated corpus and queries")
	flag.Float64Var(&secs, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced window and prints per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for snapshots and traces")
	flag.Parse()
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("bad --trace %d: want 0 or 1", trace))
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// run executes one workload run and returns its result line; the human
// report goes to out.
func run(o options, out io.Writer) (result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("bad --seconds %v: want a positive duration", o.seconds)
	}
	t0 := time.Now()
	in, err := makeInputs(w, o.seed, o.sz)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "workload %s seed %d: inputs generated in %v\n", w.name, o.seed, time.Since(t0).Round(time.Millisecond))
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, err
	}
	runDir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(runDir)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	stacks := make([]*stack, 0, o.sz.setups)
	for i := range o.sz.setups {
		st, err := setupStack(w, in, filepath.Join(runDir, fmt.Sprintf("setup%d", i)), tr)
		if err != nil {
			return result{}, err
		}
		stacks = append(stacks, st)
		if i < o.sz.setups-1 {
			st.srv.Close()
		}
	}
	st := stacks[len(stacks)-1]
	defer st.srv.Close()
	// The rows are only needed for set-up; the process's heap should hold
	// what the server holds, not the benchmark's inputs.
	in.ds = nil

	m := &measurement{w: w, in: in, o: o, st: st, tr: tr, eng: &engineTracker{srv: st.srv}}
	m.drive()
	if err := m.verify(); err != nil {
		return result{}, err
	}
	res := m.report(stacks, out)
	if tr != nil {
		path := filepath.Join(o.dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return result{}, err
		}
		if err := tr.writeJSONL(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "trace: %d spans written to %s\n", len(tr.snapshot()), path)
	}
	return res, nil
}

// measurement is one run's traffic against one served stack.
type measurement struct {
	w  workload
	in *inputs
	o  options
	st *stack
	tr *tracer
	// tracing holds tr while the traced window runs, nil otherwise; the
	// client and the handler wrapper both read it.
	tracing atomic.Pointer[tracer]
	eng     *engineTracker

	// warm, untraced, traced, extra (the reload before the traced window)
	// and idleReloads hold every request the run sent.
	warm, extra, idleReloads []sample
	untraced, traced         window
	cacheT                   cirank.CacheStats
	directs                  map[int]direct
	verdict                  verdict
}

// drive sends the run's traffic: warm-up, the untraced window, and on a
// traced run a second, traced window from a freshly reloaded engine.
func (m *measurement) drive() {
	var h http.Handler = tracingHandler(m.st.srv.Handler(), &m.tracing)
	if m.o.fault != "" {
		h = faultHandler(h, m.o.fault)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	cli := newClient(ts.URL, m.in.queries, clients, &m.tracing)
	defer cli.close()
	cli.onReload = m.eng.note
	cn := cli.newConn()
	warmUp := func() {
		m.warm = append(m.warm, cn.replay(m.in.warm)...)
		// A repeating schedule also runs untimed for a while, so the window
		// starts after the collector and the connections have settled from
		// set-up. A unique schedule cannot spare the queries.
		if m.in.cycle {
			m.warm = append(m.warm, cli.run(m.in.schedule, true, clients, m.o.sz.warmup).samples...)
		}
	}

	warmUp()
	m.untraced = cli.run(m.in.schedule, m.in.cycle, clients, m.o.seconds)
	if m.tr != nil {
		// Start the traced window where the untraced one started: a fresh
		// engine and an empty result cache, warmed the same way.
		m.extra = append(m.extra, cn.do(reloadStep))
		warmUp()
		m.eng.begin()
		m.tracing.Store(m.tr)
		m.traced = cli.run(m.in.schedule, m.in.cycle, clients, m.o.seconds)
		m.tracing.Store(nil)
		m.cacheT = m.eng.delta()
	}
	// Space the idle reloads out, so their median spans more than one
	// moment of the machine's speed.
	for range m.o.sz.idleReloads {
		time.Sleep(idleReloadGap)
		m.idleReloads = append(m.idleReloads, cn.do(reloadStep))
	}
}

// idleReloadGap is the pause before each idle reload.
const idleReloadGap = 50 * time.Millisecond

// verify answers every served query directly and checks the responses.
func (m *measurement) verify() error {
	ref, err := cirank.Open(m.st.refPath)
	if err != nil {
		return fmt.Errorf("opening reference engine: %w", err)
	}
	defer ref.Close()
	ch := &checker{queries: m.in.queries, ref: ref, tr: m.tr}
	if m.tr != nil && m.w.shards > 1 {
		set, err := cirank.OpenShardSet(m.st.snapPath)
		if err != nil {
			return fmt.Errorf("opening shard set: %w", err)
		}
		defer set.Close()
		ch.set = set
	}
	all := m.all()
	m.directs, err = ch.answer(distinctSteps(all))
	if err != nil {
		return err
	}
	m.verdict = check(all, m.directs, m.in.queries)
	return nil
}

func (m *measurement) all() []sample {
	var all []sample
	for _, part := range [][]sample{m.warm, m.untraced.samples, m.traced.samples, m.extra, m.idleReloads} {
		all = append(all, part...)
	}
	return all
}

// engineTracker sums Engine.CacheStats over every engine the server serves
// during a window, including the ones reloads swap in.
type engineTracker struct {
	srv  *server.Server
	mu   sync.Mutex
	base map[*cirank.Engine]cirank.CacheStats
}

// begin starts a window: the currently served engines' counters become the
// baseline.
func (t *engineTracker) begin() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.base = map[*cirank.Engine]cirank.CacheStats{}
	for _, e := range t.served() {
		t.base[e] = e.CacheStats()
	}
}

// note records engines swapped in since the last call; they start from
// zero. Outside a window (before begin) it does nothing.
func (t *engineTracker) note() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.base == nil {
		return
	}
	for _, e := range t.served() {
		if _, ok := t.base[e]; !ok {
			t.base[e] = cirank.CacheStats{}
		}
	}
}

func (t *engineTracker) delta() cirank.CacheStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d cirank.CacheStats
	for e, b := range t.base {
		c := e.CacheStats()
		d.ScoreHits += c.ScoreHits - b.ScoreHits
		d.ScoreMisses += c.ScoreMisses - b.ScoreMisses
		d.BoundHits += c.BoundHits - b.BoundHits
		d.BoundMisses += c.BoundMisses - b.BoundMisses
	}
	return d
}

func (t *engineTracker) served() []*cirank.Engine {
	out := make([]*cirank.Engine, t.srv.NumShards())
	for i := range out {
		l := t.srv.ShardProvider(i).Acquire()
		if l == nil {
			return nil
		}
		out[i] = l.Engine()
		l.Release()
	}
	return out
}

// quantile is the nearest-rank q-quantile of sorted values, with the number
// of values above it.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	r := int(math.Ceil(q*float64(len(sorted)))) - 1
	r = min(max(r, 0), len(sorted)-1)
	return sorted[r], len(sorted) - 1 - r
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := quantile(s, 0.5)
	return v
}

// ratio is n/d, or 0 when d is 0.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

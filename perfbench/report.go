package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// windowStats summarizes one window's search requests.
type windowStats struct {
	searches, ok, rejected, reloads int
	engine, cache, coalesced        int
	qps                             float64
	// lat is every search's client-measured latency in ms, sorted.
	lat       []float64
	reloadLat []float64
	respBytes float64
}

func summarize(w window) windowStats {
	var ws windowStats
	total := 0
	for _, s := range w.samples {
		if s.step == reloadStep {
			ws.reloads++
			ws.reloadLat = append(ws.reloadLat, ms(s.lat))
			continue
		}
		ws.searches++
		ws.lat = append(ws.lat, ms(s.lat))
		total += s.bytes
		if s.status == 429 {
			ws.rejected++
		}
		if !s.ok() {
			continue
		}
		ws.ok++
		switch s.source {
		case srcEngine:
			ws.engine++
		case srcCache:
			ws.cache++
		case srcCoalesced:
			ws.coalesced++
		}
	}
	sort.Float64s(ws.lat)
	if w.elapsed > 0 {
		ws.qps = float64(ws.ok) / w.elapsed.Seconds()
	}
	if ws.searches > 0 {
		ws.respBytes = float64(total) / float64(ws.searches)
	}
	return ws
}

// report prints the human-readable report to out and returns the result
// line: the end-to-end metrics on an untraced run, the per-layer metrics on
// a traced one.
func (m *measurement) report(stacks []*stack, out io.Writer) result {
	all := m.all()
	res := result{Correct: m.verdict.correct(), Attempted: len(all), Metrics: map[string]metric{}}
	for _, s := range all {
		if !s.ok() {
			res.Failed++
		}
	}
	res.Failed += m.verdict.bad

	st := m.st
	fmt.Fprintf(out, "inputs: nodes %d, edges %d, distinct queries %d, requests %d, snapshot bytes %d\n",
		st.nodes, st.edges, len(m.in.queries), len(all), st.snapBytes)

	u := summarize(m.untraced)
	p50, _ := quantile(u.lat, 0.50)
	p99, beyond := quantile(u.lat, 0.99)
	var reloadLat []float64
	for _, s := range m.idleReloads {
		reloadLat = append(reloadLat, ms(s.lat))
	}
	setupS, setupMB := make([]float64, len(stacks)), make([]float64, len(stacks))
	for i, s := range stacks {
		setupS[i] = s.setup.Seconds()
		setupMB[i] = float64(s.heapBytes+s.snapBytes) / (1 << 20)
	}
	e2e := []struct {
		name, unit string
		v          float64
		note       string
	}{
		{"qps", "1/s", u.qps, fmt.Sprintf("%d OK searches in %v", u.ok, m.untraced.elapsed.Round(time.Millisecond))},
		{"p50_ms", "ms", p50, fmt.Sprintf("n=%d", len(u.lat))},
		{"p99_ms", "ms", p99, fmt.Sprintf("n=%d, %d beyond", len(u.lat), beyond)},
		{"setup_s", "s", median(setupS), fmt.Sprintf("median of %d set-ups", len(stacks))},
		{"setup_mb", "MiB", median(setupMB), fmt.Sprintf("median of %d set-ups", len(stacks))},
		{"reload_p50_ms", "ms", median(reloadLat), fmt.Sprintf("n=%d, idle, after the window", len(reloadLat))},
	}
	fmt.Fprintln(out, "end-to-end (untraced window):")
	for _, e := range e2e {
		fmt.Fprintf(out, "  %-14s %12.4f %-4s (%s)\n", e.name, e.v, e.unit, e.note)
		if !m.o.trace {
			res.Metrics[e.name] = metric{Value: e.v, Unit: e.unit}
		}
	}
	fmt.Fprintf(out, "  %-14s %12.4f %-4s (%d of %d requests)\n", "fail_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	if m.untraced.exhausted {
		fmt.Fprintln(out, "  note: the unique schedule ran out before the window ended")
	}
	if beyond < 10 {
		fmt.Fprintf(out, "  note: only %d samples beyond p99; the window is too short for a stable p99\n", beyond)
	}
	fmt.Fprintf(out, "check: %d distinct queries answered directly, %d mismatched, %d stale", len(m.directs), m.verdict.mismatched, m.verdict.stale)
	if m.verdict.firstProblem != "" {
		fmt.Fprintf(out, "; first: %s", m.verdict.firstProblem)
	}
	fmt.Fprintln(out)
	if m.o.trace {
		m.layers(stacks, u, res.Metrics, out)
	}
	return res
}

// layers computes the per-layer metrics from the traced window, the
// set-up steps and the direct engine calls, and prints the span table.
func (m *measurement) layers(stacks []*stack, untraced windowStats, metrics map[string]metric, out io.Writer) {
	put := func(name, unit string, v float64) { metrics[name] = metric{Value: v, Unit: unit} }
	spans := m.tr.snapshot()
	handler := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == "server.handler" && s.End >= 0 {
			handler[s.Req] = time.Duration(s.End - s.Start)
		}
	}

	// Served path, per traced search request: client = transport + server
	// self + engine, where engine is the envelope's elapsed_ms on an
	// evaluated answer, at most the handler time on a coalesced one, and 0
	// on a cache hit (whose elapsed_ms is the original evaluation's).
	t := summarize(m.traced)
	var hand, self, transport, client, engineT, elapsed []float64
	evals := 0
	for _, s := range m.traced.samples {
		if s.step == reloadStep || !s.ok() {
			continue
		}
		h, ok := handler[s.req]
		if !ok {
			continue
		}
		hm := ms(h)
		eng := 0.0
		switch s.source {
		case srcEngine:
			eng = s.elapsedMS
			elapsed = append(elapsed, s.elapsedMS)
			evals++
		case srcCoalesced:
			eng = min(s.elapsedMS, hm)
		}
		hand = append(hand, hm)
		self = append(self, hm-eng)
		transport = append(transport, ms(s.lat)-hm)
		client = append(client, ms(s.lat))
		engineT = append(engineT, eng)
	}
	sort.Float64s(hand)
	hp50, _ := quantile(hand, 0.5)
	hp99, hbeyond := quantile(hand, 0.99)
	put("server.handler_p50_ms", "ms", hp50)
	put("server.handler_p99_ms", "ms", hp99)
	put("server.self_ms", "ms", mean(self))
	put("server.cache_hit_frac", "ratio", ratio(float64(t.cache), float64(t.ok)))
	put("server.coalesced_frac", "ratio", ratio(float64(t.coalesced), float64(t.ok)))
	put("server.rejected", "count", float64(t.rejected))
	put("server.resp_bytes", "bytes", t.respBytes)
	put("http.transport_ms", "ms", mean(transport))
	put("engine.elapsed_ms", "ms", mean(elapsed))
	put("reload.rewarm_evals", "count", ratio(float64(evals), float64(t.reloads)))
	put("reload.loaded_p50_ms", "ms", median(t.reloadLat))
	put("rwmp.score_hit_frac", "ratio", ratio(float64(m.cacheT.ScoreHits), float64(m.cacheT.ScoreHits+m.cacheT.ScoreMisses)))
	put("pathindex.bound_hit_frac", "ratio", ratio(float64(m.cacheT.BoundHits), float64(m.cacheT.BoundHits+m.cacheT.BoundMisses)))

	// Direct engine calls, one per distinct query.
	var search, sharded, slowest, gather []float64
	var expanded, generated, truncated, postings, shardExpanded float64
	for _, s := range spans {
		if s.Name == "engine.search" && s.End >= 0 {
			search = append(search, ms(time.Duration(s.End-s.Start)))
		}
	}
	for _, d := range m.directs {
		expanded += float64(d.stats.Expanded)
		generated += float64(d.stats.Generated)
		if d.stats.Truncated {
			truncated++
		}
		postings += float64(d.postings)
		if d.shardedTraced {
			sharded = append(sharded, ms(d.sharded))
			slowest = append(slowest, ms(d.slowestLeg))
			gather = append(gather, ms(d.sharded-d.slowestLeg))
			shardExpanded += float64(d.shardedStats.Expanded)
		}
	}
	nq := float64(max(len(m.directs), 1))
	sort.Float64s(search)
	sp50, _ := quantile(search, 0.5)
	sp99, _ := quantile(search, 0.99)
	put("engine.search_p50_ms", "ms", sp50)
	put("engine.search_p99_ms", "ms", sp99)
	put("search.expanded_per_q", "count", expanded/nq)
	put("search.generated_per_q", "count", generated/nq)
	put("search.truncated_frac", "ratio", truncated/nq)
	put("textindex.postings_per_q", "count", postings/nq)
	put("shard.sharded_ms", "ms", mean(sharded))
	put("shard.slowest_ms", "ms", mean(slowest))
	put("shard.gather_ms", "ms", mean(gather))
	put("shard.expanded_per_q", "count", shardExpanded/float64(max(len(sharded), 1)))

	// Set-up steps, medians over the run's set-ups.
	step := func(f func(*stack) float64) float64 {
		xs := make([]float64, len(stacks))
		for i, s := range stacks {
			xs[i] = f(s)
		}
		return median(xs)
	}
	bs := m.st.buildStats
	put("build.ingest_ms", "ms", step(func(s *stack) float64 { return ms(s.ingest) }))
	put("build.total_ms", "ms", step(func(s *stack) float64 { return ms(s.build) }))
	put("build.graph_ms", "ms", step(func(s *stack) float64 { return ms(s.buildStats.Graph.Duration) }))
	put("build.text_ms", "ms", step(func(s *stack) float64 { return ms(s.buildStats.TextIndex.Duration) }))
	put("build.pagerank_ms", "ms", step(func(s *stack) float64 { return ms(s.buildStats.PageRank.Duration) }))
	put("build.pathindex_ms", "ms", step(func(s *stack) float64 { return ms(s.buildStats.PathIndex.Duration) }))
	put("snapshot.save_ms", "ms", step(func(s *stack) float64 { return ms(s.save) }))
	put("snapshot.open_ms", "ms", step(func(s *stack) float64 { return ms(s.open) }))
	put("snapshot.bytes", "bytes", float64(m.st.snapBytes))
	put("pathindex.entries", "count", float64(bs.PathIndexMem.Entries))
	put("pathindex.bytes", "bytes", float64(bs.PathIndexMem.Bytes))
	put("shard.split_ms", "ms", step(func(s *stack) float64 { return ms(s.split) }))
	put("shard.halo_dup", "ratio", m.st.haloDup)

	put("trace.qps_untraced", "1/s", untraced.qps)
	put("trace.qps_traced", "1/s", t.qps)
	put("trace.overhead_frac", "ratio", 1-ratio(t.qps, untraced.qps))

	fmt.Fprintln(out, "per-layer (traced window, direct calls, set-up):")
	fmt.Fprintf(out, "  served: %d searches, %d evaluated, %d cache, %d coalesced, %d rejected, %d reloads\n",
		t.searches, t.engine, t.cache, t.coalesced, t.rejected, t.reloads)
	fmt.Fprintf(out, "  handler p50 %.4f ms, p99 %.4f ms (n=%d, %d beyond); engine.search p50 %.4f ms, p99 %.4f ms (n=%d)\n",
		hp50, hp99, len(hand), hbeyond, sp50, sp99, len(search))
	c, tp, sf, en := mean(client), mean(transport), mean(self), mean(engineT)
	fmt.Fprintf(out, "  per request (mean ms): client %.4f = transport %.4f + server self %.4f + engine %.4f (sum %.4f)\n",
		c, tp, sf, en, tp+sf+en)
	fmt.Fprintf(out, "  tracing overhead: qps %.1f traced vs %.1f untraced\n", t.qps, untraced.qps)
	rows := layerTable(spans)
	printLayerTable(out, rows)
	for _, name := range sortedNames(metrics) {
		fmt.Fprintf(out, "  %-26s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}

func sortedNames(metrics map[string]metric) []string {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"cirank"
	"cirank/internal/textindex"
)

// The server defaults every benchmark request takes, since requests omit k
// and diameter. The reference answers must use the same options.
const (
	serverDefaultK             = 5
	serverDefaultDiameter      = 4
	serverDefaultMaxExpansions = 200000
)

// verdict is the output check's account of a run's responses.
type verdict struct {
	// mismatched counts responses whose ranking differs from the direct
	// engine's; stale counts responses older than a completed reload; bad
	// counts responses that are either.
	mismatched, stale, bad int
	// firstProblem describes the first failure, for the log.
	firstProblem string
}

func (v verdict) correct() bool { return v.mismatched == 0 && v.stale == 0 }

// direct is what the reference engine did for one distinct query.
type direct struct {
	fp       uint64
	stats    cirank.SearchStats
	postings int
	// sharded* are the direct shard-set calls on a sharded workload,
	// traced runs only.
	shardedStats  cirank.SearchStats
	sharded       time.Duration
	slowestLeg    time.Duration
	shardedFP     uint64
	shardedTraced bool
}

// checker answers queries directly on engines opened separately from the
// served ones.
type checker struct {
	queries []string
	ref     *cirank.Engine
	// set is a separately opened copy of the served shard set (traced
	// sharded runs only).
	set *cirank.ShardedEngine
	tr  *tracer
}

// answer runs every query index in idx on the reference engine (and, when
// set is open, on the shard set and each of its shards), two at a time.
func (ch *checker) answer(idx []int) (map[int]direct, error) {
	out := make(map[int]direct, len(idx))
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
		err  error
	)
	opts := cirank.SearchOptions{Diameter: serverDefaultDiameter, MaxExpansions: serverDefaultMaxExpansions}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(idx) || err != nil {
					mu.Unlock()
					return
				}
				q := idx[next]
				next++
				mu.Unlock()
				d, qerr := ch.one(q, opts)
				mu.Lock()
				if qerr != nil && err == nil {
					err = fmt.Errorf("direct search %q: %w", ch.queries[q], qerr)
				}
				out[q] = d
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, err
}

func (ch *checker) one(q int, opts cirank.SearchOptions) (direct, error) {
	ctx := context.Background()
	terms := textindex.Tokenize(ch.queries[q])
	var d direct
	id := ch.tr.start("engine.search", int64(q), -1)
	res, err := ch.ref.SearchTermsContext(ctx, terms, serverDefaultK, opts)
	ch.tr.end(id)
	if err != nil {
		return d, err
	}
	d.fp, d.stats = fingerprint(res.Results), res.Stats
	for _, t := range terms {
		d.postings += ch.ref.TermSelectivity(t)
	}
	if ch.set == nil {
		return d, nil
	}
	id = ch.tr.start("shard.sharded", int64(q), -1)
	t0 := time.Now()
	sres, err := ch.set.SearchTermsContext(ctx, terms, serverDefaultK, opts)
	d.sharded = time.Since(t0)
	ch.tr.end(id)
	if err != nil {
		return d, err
	}
	d.shardedStats, d.shardedFP, d.shardedTraced = sres.Stats, fingerprint(sres.Results), true
	for i := range ch.set.NumShards() {
		id := ch.tr.start("shard.leg", int64(q), -1)
		t0 := time.Now()
		_, err := ch.set.Shard(i).SearchTermsContext(ctx, terms, serverDefaultK, opts)
		d.slowestLeg = max(d.slowestLeg, time.Since(t0))
		ch.tr.end(id)
		if err != nil {
			return d, err
		}
	}
	return d, nil
}

// check compares every served search response with the direct answer for
// its query and flags responses older than a completed reload.
func check(samples []sample, ref map[int]direct, queries []string) verdict {
	var v verdict
	note := func(format string, args ...any) {
		if v.firstProblem == "" {
			v.firstProblem = fmt.Sprintf(format, args...)
		}
	}
	for i := range samples {
		s := &samples[i]
		if !s.ok() || s.step == reloadStep {
			continue
		}
		stale, mismatched := s.stale(), false
		if stale {
			v.stale++
			note("query %q answered at generation %d after reload to %d completed", queries[s.step], s.gen, s.floor)
		}
		d, ok := ref[s.step]
		switch {
		case !ok:
			mismatched = true
			note("query %q has no reference answer", queries[s.step])
		case s.k != serverDefaultK || s.interrupted || s.fp != d.fp:
			mismatched = true
			note("query %q: served ranking (k=%d, interrupted=%t) differs from the direct engine's", queries[s.step], s.k, s.interrupted)
		case d.shardedTraced && d.shardedFP != d.fp:
			mismatched = true
			note("query %q: direct shard-set ranking differs from the single engine's", queries[s.step])
		}
		if mismatched {
			v.mismatched++
		}
		if stale || mismatched {
			v.bad++
		}
	}
	return v
}

// distinctSteps lists the query indices answered OK in samples, sorted.
func distinctSteps(samples []sample) []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range samples {
		if s.step != reloadStep && s.ok() && !seen[s.step] {
			seen[s.step] = true
			out = append(out, s.step)
		}
	}
	sort.Ints(out)
	return out
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cirank"
	"cirank/internal/server"
)

// stack is one served instance of a workload's corpus: the server that
// cirank-server -snapshot would run, plus what it took to get there.
type stack struct {
	srv *server.Server
	// snapPath is the snapshot file (or shard-set base path) the server
	// reloads from; refPath is the unsharded snapshot the output check
	// answers from (the same file on an unsharded stack).
	snapPath, refPath string
	snapBytes         int64
	nodes, edges      int
	// setup is the time until the first query could be answered.
	setup time.Duration
	// heapBytes is the Go heap the served engines and server retain.
	heapBytes int64
	// build, save, open, split, ingest and newSrv time the setup steps.
	ingest, build, save, open, split, newSrv time.Duration
	buildStats                               cirank.BuildStats
	// haloDup is Σ shard edges / corpus edges (0 when unsharded).
	haloDup float64
}

// setupStack replays the corpus rows into cirank.Builder, builds with
// DefaultConfig, saves the snapshot, opens it and starts server.New with
// the default server.Config, recording spans under tr (nil when untraced).
// A sharded workload also splits the built engine with ShardEngines and
// serves the shard set. Only those steps count toward setup; the unsharded
// reference snapshot of a sharded stack is written after the clock stops.
func setupStack(w workload, in *inputs, dir string, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stack{snapPath: filepath.Join(dir, "corpus.snap")}
	st.refPath = st.snapPath
	heap0 := liveHeap()

	root := tr.start("setup", 0, -1)
	start := time.Now()
	step := func(name string, d *time.Duration, f func() error) error {
		id := tr.start(name, 0, root)
		t := time.Now()
		err := f()
		*d = time.Since(t)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	b := cirank.NewDBLPBuilder()
	if err := step("build.ingest", &st.ingest, func() error { return in.ds.Replay(b.InsertEntity, b.Relate) }); err != nil {
		return nil, err
	}
	var eng *cirank.Engine
	if err := step("build.build", &st.build, func() (err error) {
		eng, err = b.Build(cirank.DefaultConfig())
		return err
	}); err != nil {
		return nil, err
	}
	b = nil
	cfg := server.Config{SnapshotPath: st.snapPath}
	if w.shards > 1 {
		var parts []*cirank.Engine
		if err := step("shard.split", &st.split, func() (err error) {
			parts, err = cirank.ShardEngines(eng, w.shards, cirank.DefaultShardRadius)
			return err
		}); err != nil {
			return nil, err
		}
		for _, p := range parts {
			st.haloDup += float64(p.NumEdges()) / float64(eng.NumEdges())
		}
		if err := step("snapshot.save", &st.save, func() error { return cirank.SaveShardSet(parts, st.snapPath) }); err != nil {
			return nil, err
		}
		parts = nil
		if err := step("snapshot.open", &st.open, func() error {
			se, err := cirank.OpenShardSet(st.snapPath)
			if err == nil {
				cfg.Shards = se.Engines()
			}
			return err
		}); err != nil {
			return nil, err
		}
	} else {
		if err := step("snapshot.save", &st.save, func() error { return saveSnapshot(eng, st.snapPath) }); err != nil {
			return nil, err
		}
		if err := step("snapshot.open", &st.open, func() (err error) {
			cfg.Engine, err = cirank.Open(st.snapPath)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := step("server.new", &st.newSrv, func() (err error) {
		st.srv, err = server.New(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	st.setup = time.Since(start)
	tr.end(root)

	st.buildStats = eng.BuildStats()
	st.nodes, st.edges = eng.NumNodes(), eng.NumEdges()
	if w.shards > 1 {
		st.refPath = filepath.Join(dir, "reference.snap")
		if err := saveSnapshot(eng, st.refPath); err != nil {
			st.srv.Close()
			return nil, err
		}
	}
	for i := 0; i < max(w.shards, 1); i++ {
		p := st.snapPath
		if w.shards > 1 {
			p = cirank.ShardSnapshotPath(p, i)
		}
		fi, err := os.Stat(p)
		if err != nil {
			st.srv.Close()
			return nil, err
		}
		st.snapBytes += fi.Size()
	}
	eng = nil
	st.heapBytes = liveHeap() - heap0
	return st, nil
}

// liveHeap is the Go heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// saveSnapshot writes eng's snapshot to path.
func saveSnapshot(eng *cirank.Engine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eng.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

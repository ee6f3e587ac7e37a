package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cirank"
	"cirank/internal/server"
)

// Request headers that carry the trace context from the client span to the
// handler span of the same request.
const (
	hdrRequestID  = "X-Request-Id"
	hdrParentSpan = "X-Bench-Parent-Span"
)

// Serving sources as the /v1 envelope reports them in stats.source.
const (
	srcOther uint8 = iota
	srcEngine
	srcCache
	srcCoalesced
)

// sample is one request the client sent and what came back.
type sample struct {
	// step is the query index, or reloadStep for a reload.
	step int
	req  int64
	// status is the HTTP status, 0 on a transport error.
	status int
	lat    time.Duration
	bytes  int
	// gen is the generation the response claims; floor is the generation
	// of the last reload completed before the request was sent.
	gen, floor uint64
	source     uint8
	elapsedMS  float64
	k          int
	// fp fingerprints the ranking: every answer's score and row keys.
	fp          uint64
	interrupted bool
	badBody     bool
}

func (s *sample) ok() bool { return s.status == http.StatusOK && !s.badBody }

// stale reports a response computed against a generation older than a
// reload that had completed before the request was sent.
func (s *sample) stale() bool { return s.ok() && s.step != reloadStep && s.gen < s.floor }

// client drives the served /v1 stack over a loopback listener.
type client struct {
	base  string
	http  *http.Client
	paths []string
	// floor is the generation of the last completed reload.
	floor atomic.Uint64
	seq   atomic.Int64
	// seed keys the response-body memo of every conn.
	seed maphash.Seed
	// tr holds the tracer while a traced window runs.
	tr *atomic.Pointer[tracer]
	// onReload runs after every successful reload, on the client goroutine
	// that sent it.
	onReload func()
}

func newClient(base string, queries []string, conns int, tr *atomic.Pointer[tracer]) *client {
	c := &client{
		base: base,
		tr:   tr,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		paths: make([]string, len(queries)),
		seed:  maphash.MakeSeed(),
	}
	for i, q := range queries {
		c.paths[i] = base + "/v1/search?q=" + url.QueryEscape(q)
	}
	c.floor.Store(1)
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// envelope is the part of the /v1 search and reload envelopes the
// benchmark reads.
type envelope struct {
	Generation uint64 `json:"generation"`
	K          int    `json:"k"`
	Results    []struct {
		Score float64 `json:"score"`
		Rows  []struct {
			Table string `json:"table"`
			Key   string `json:"key"`
		} `json:"rows"`
	} `json:"results"`
	Stats struct {
		Interrupted bool    `json:"interrupted"`
		ElapsedMS   float64 `json:"elapsed_ms"`
		Source      string  `json:"source"`
	} `json:"stats"`
}

// conn is one client connection's reusable state. Responses repeat (a
// cached answer comes back byte for byte), so each distinct body is decoded
// once. The load generator then allocates little per request, and the
// garbage collector the benchmark shares with the server mostly collects
// the server's garbage.
type conn struct {
	c    *client
	body bytes.Buffer
	seen map[uint64]decoded
}

// decoded is what the benchmark reads from one response body.
type decoded struct {
	bad         bool
	gen         uint64
	k           int
	source      uint8
	elapsedMS   float64
	interrupted bool
	fp          uint64
}

func (c *client) newConn() *conn { return &conn{c: c, seen: map[uint64]decoded{}} }

// do sends one schedule step and waits for the whole response.
func (cn *conn) do(step int) sample {
	c := cn.c
	s := sample{step: step, req: c.seq.Add(1), floor: c.floor.Load()}
	method, target, name := http.MethodGet, "", "client.search"
	if step == reloadStep {
		method, target, name = http.MethodPost, c.base+"/v1/admin/reload", "client.reload"
	} else {
		target = c.paths[step]
	}
	req, err := http.NewRequest(method, target, nil)
	if err != nil {
		return s
	}
	tr := c.tr.Load()
	id := tr.start(name, s.req, -1)
	if tr != nil {
		req.Header.Set(hdrRequestID, strconv.FormatInt(s.req, 10))
		req.Header.Set(hdrParentSpan, strconv.Itoa(int(id)))
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	cn.body.Reset()
	if err == nil {
		_, err = cn.body.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	s.lat = time.Since(start)
	tr.end(id)
	if err != nil {
		return s
	}
	s.status, s.bytes = resp.StatusCode, cn.body.Len()
	if s.status != http.StatusOK {
		return s
	}
	key := maphash.Bytes(c.seed, cn.body.Bytes())
	d, ok := cn.seen[key]
	if !ok {
		d = decode(cn.body.Bytes())
		cn.seen[key] = d
	}
	s.badBody, s.gen, s.k = d.bad, d.gen, d.k
	s.source, s.elapsedMS, s.interrupted, s.fp = d.source, d.elapsedMS, d.interrupted, d.fp
	if step == reloadStep && !d.bad {
		for f := c.floor.Load(); f < s.gen && !c.floor.CompareAndSwap(f, s.gen); f = c.floor.Load() {
		}
		if c.onReload != nil {
			c.onReload()
		}
	}
	return s
}

// decode reads a /v1 search or reload envelope.
func decode(body []byte) decoded {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return decoded{bad: true}
	}
	d := decoded{gen: env.Generation, k: env.K, elapsedMS: env.Stats.ElapsedMS, interrupted: env.Stats.Interrupted}
	switch env.Stats.Source {
	case server.ServedEngine:
		d.source = srcEngine
	case server.ServedCache:
		d.source = srcCache
	case server.ServedCoalesced:
		d.source = srcCoalesced
	}
	var h rankHash
	h.init()
	for _, a := range env.Results {
		h.answer(a.Score)
		for _, r := range a.Rows {
			h.row(r.Table, r.Key)
		}
	}
	d.fp = h.Sum64()
	return d
}

// fingerprint hashes a direct engine answer exactly as client.do hashes a
// served one.
func fingerprint(res []cirank.Result) uint64 {
	var h rankHash
	h.init()
	for _, a := range res {
		h.answer(a.Score)
		for _, r := range a.Rows {
			h.row(r.Table, r.Key)
		}
	}
	return h.Sum64()
}

// rankHash fingerprints a ranking: each answer's score bits, then its row
// keys in order.
type rankHash struct{ hash.Hash64 }

func (h *rankHash) init() { h.Hash64 = fnv.New64a() }

func (h *rankHash) answer(score float64) {
	var buf [9]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(score))
	buf[8] = 1
	h.Write(buf[:])
}

func (h *rankHash) row(table, key string) {
	io.WriteString(h, table)
	h.Write([]byte{0})
	io.WriteString(h, key)
	h.Write([]byte{0})
}

// window is one closed-loop measurement.
type window struct {
	samples   []sample
	elapsed   time.Duration
	exhausted bool
}

// replay sends steps one after another on one connection, untimed.
func (cn *conn) replay(steps []int) []sample {
	out := make([]sample, 0, len(steps))
	for _, st := range steps {
		out = append(out, cn.do(st))
	}
	return out
}

// run drives a closed loop for d: each of conns clients sends the next
// schedule step as soon as its previous request has answered. A cycling
// schedule wraps around; a unique one ends the window when it runs out.
func (c *client) run(schedule []int, cycle bool, conns int, d time.Duration) window {
	var (
		next      atomic.Int64
		exhausted atomic.Bool
		wg        sync.WaitGroup
		mu        sync.Mutex
		w         window
	)
	start := time.Now()
	deadline := start.Add(d)
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := c.newConn()
			local := make([]sample, 0, 1024)
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(schedule) {
					if !cycle {
						exhausted.Store(true)
						break
					}
					i %= len(schedule)
				}
				local = append(local, cn.do(schedule[i]))
			}
			mu.Lock()
			w.samples = append(w.samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.exhausted = exhausted.Load()
	return w
}

// tracingHandler wraps h in a server.handler span per request, parented to
// the client span named by the request headers. With no tracer installed
// it only forwards.
func tracingHandler(h http.Handler, tracing *atomic.Pointer[tracer]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := tracing.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(hdrRequestID), 10, 64)
		parent, err := strconv.Atoi(r.Header.Get(hdrParentSpan))
		if err != nil {
			parent = -1
		}
		id := tr.start("server.handler", req, int32(parent))
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

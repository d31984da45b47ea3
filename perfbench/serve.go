package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/memtest/partialfaults/internal/service"
)

// serveClients is the closed loop's client count, and serveParallelism
// the service's simulation bound; both match a 2-CPU host.
const (
	serveClients     = 2
	serveParallelism = 2
)

// serveEnv is one booted service behind a loopback HTTP server.
type serveEnv struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func bootService(dir string) (*serveEnv, error) {
	srv, err := service.New(service.Config{StoreDir: dir, Parallelism: serveParallelism})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	return &serveEnv{srv: srv, ts: ts, client: client}, nil
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.ts.Close()
	if err := e.srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing service:", err)
	}
}

// served is one request's outcome as the client saw it.
type served struct {
	req        request
	status     int
	cached     bool
	collapsed  bool
	result     []byte
	start, end float64 // seconds since the pass started
}

// record is what a pass keeps of one request. It is small and
// preallocated (recordCap covers ~60k requests, twice a 30 s pass), so
// that the benchmark's own bookkeeping stays flat in peak_heap_mb.
type record struct {
	endpoint          string
	cached, collapsed bool
	start, end        float64
}

const recordCap = 1 << 16

func (r record) ms() float64 { return (r.end - r.start) * 1e3 }

func (e *serveEnv) post(r request, t0 time.Time) (out served) {
	out = served{req: r, start: time.Since(t0).Seconds()}
	defer func() { out.end = time.Since(t0).Seconds() }()
	resp, err := e.client.Post(e.ts.URL+"/v1/"+r.Endpoint, "application/json", bytes.NewReader([]byte(r.Body)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.Endpoint, err)
		return out
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.Endpoint, err)
		return out
	}
	out.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: status %d: %s\n", r.Endpoint, r.Body, resp.StatusCode, buf)
		return out
	}
	if r.Endpoint == "batch" {
		// A batch answers with its sub-responses and has no envelope of
		// its own: it is a hit when every sub-request was one.
		subs, ok := batchResults(buf)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: batch %s: a sub-request failed: %s\n", r.Body, buf)
			out.status = 0
			return out
		}
		// The result is the sub-results alone: the sub-envelopes' flags
		// legitimately change between repeats.
		out.cached = true
		for _, sub := range subs {
			out.cached = out.cached && sub.Cached
			out.collapsed = out.collapsed || sub.Collapsed
			out.result = append(append(out.result, sub.Result...), '\n')
		}
		return out
	}
	var env envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: bad envelope: %v\n", r.Endpoint, err)
		out.status = 0
		return out
	}
	out.cached, out.collapsed, out.result = env.Cached, env.Collapsed, env.Result
	return out
}

// checker holds a digest of the first result seen for every body: a
// later response to the same body must carry the same result bytes.
type checker struct {
	mu    sync.Mutex
	first map[string][sha256.Size]byte
}

func (c *checker) ok(s served) bool {
	if s.status != http.StatusOK {
		return false
	}
	sum := sha256.Sum256(s.result)
	c.mu.Lock()
	defer c.mu.Unlock()
	key := s.req.Endpoint + " " + s.req.Body
	prev, seen := c.first[key]
	if !seen {
		c.first[key] = sum
		return true
	}
	if prev != sum {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: result differs from the first response\n", s.req.Endpoint, s.req.Body)
		return false
	}
	return true
}

// envelope is the service's wrapper around every cacheable result.
type envelope struct {
	Cached    bool            `json:"cached"`
	Collapsed bool            `json:"collapsed"`
	Result    json.RawMessage `json:"result"`
}

// batchResults decodes a batch response into its sub-envelopes; ok is
// false when it does not decode or a sub-request failed.
func batchResults(buf []byte) ([]envelope, bool) {
	var b struct {
		Responses []struct {
			Status int      `json:"status"`
			Body   envelope `json:"body"`
		} `json:"responses"`
	}
	if json.Unmarshal(buf, &b) != nil {
		return nil, false
	}
	var out []envelope
	for _, r := range b.Responses {
		if r.Status != http.StatusOK {
			return nil, false
		}
		out = append(out, r.Body)
	}
	return out, true
}

// runClients sends requests from next on serveClients closed-loop
// clients until next reports the stream is done. Every response is
// checked as it arrives and counted in res; the outcomes come back in
// completion order.
func runClients(env *serveEnv, t0 time.Time, next func() (request, bool), chk *checker, res *result) []record {
	var mu sync.Mutex
	out := make([]record, 0, recordCap)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r, ok := next()
				if !ok {
					return
				}
				s := env.post(r, t0)
				good := chk.ok(s)
				mu.Lock()
				out = append(out, record{s.req.Endpoint, s.cached, s.collapsed, s.start, s.end})
				res.Attempted++
				if !good {
					res.Failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// metricsSnapshot is the part of /v1/metrics the traced run reads.
type metricsSnapshot struct {
	Collapsed uint64 `json:"singleflight_collapsed"`
	Memo      struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"memo"`
	Store struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Puts   uint64 `json:"puts"`
	} `json:"store"`
}

func (e *serveEnv) metrics() (metricsSnapshot, error) {
	var m metricsSnapshot
	resp, err := e.client.Get(e.ts.URL + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/v1/metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// servePass is one serve-mixed run: fill, reboot (set-up), timed pass.
type servePass struct {
	res     result
	setupS  float64
	timed   []record
	elapsed float64
	cpu     float64
	peakMB  float64
	before  metricsSnapshot
	after   metricsSnapshot
}

func runServe(seed int64, seconds float64) (*servePass, error) {
	dir, err := os.MkdirTemp(scratchDir, "serve-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st := newStream(seed)
	chk := &checker{first: map[string][sha256.Size]byte{}}
	p := &servePass{res: result{Metrics: map[string]metric{}}}

	// Fill pass: write every hit-pool body to the store, untimed.
	env, err := bootService(dir)
	if err != nil {
		return nil, err
	}
	var fillMu sync.Mutex
	fill := st.Fill
	fillStart := time.Now()
	runClients(env, fillStart, func() (request, bool) {
		fillMu.Lock()
		defer fillMu.Unlock()
		if len(fill) == 0 {
			return request{}, false
		}
		r := fill[0]
		fill = fill[1:]
		return r, true
	}, chk, &p.res)
	env.close()
	fmt.Fprintf(os.Stderr, "perfbench: serve: filled %d bodies in %.1f s\n", len(st.Fill), time.Since(fillStart).Seconds())

	// Set-up: boot over the filled store, preloading its journal.
	env, p.setupS, err = timeSetup(5, func() (*serveEnv, error) { return bootService(dir) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	if p.before, err = env.metrics(); err != nil {
		return nil, err
	}

	var streamMu sync.Mutex
	runtime.GC()
	heap := startHeapSampler(2 * time.Millisecond)
	cpu0, t0 := cpuSeconds(), time.Now()
	window := time.Duration(seconds * float64(time.Second))
	p.timed = runClients(env, t0, func() (request, bool) {
		streamMu.Lock()
		defer streamMu.Unlock()
		if time.Since(t0) >= window {
			return request{}, false
		}
		return st.Next(), true
	}, chk, &p.res)
	p.elapsed, p.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	p.peakMB = heap.Stop()
	if p.after, err = env.metrics(); err != nil {
		return nil, err
	}
	return p, nil
}

// split separates hits (served from the store) from misses.
func split(ss []record) (hits, misses []record) {
	for _, s := range ss {
		if s.cached {
			hits = append(hits, s)
		} else {
			misses = append(misses, s)
		}
	}
	return
}

func latencies(ss []record, endpoint string) []float64 {
	var out []float64
	for _, s := range ss {
		if endpoint == "" || s.endpoint == endpoint {
			out = append(out, s.ms())
		}
	}
	return out
}

// orZero is the quantile of xs, or 0 when there are none.
func orZero(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

func serveRun(seed int64, seconds float64) (result, error) {
	p, err := runServe(seed, seconds)
	if err != nil {
		return result{}, err
	}
	all := latencies(p.timed, "")
	_, misses := split(p.timed)
	m := p.res.Metrics
	m["setup_s"] = metric{Value: p.setupS}
	m["inventory_s"] = metric{Value: orZero(latencies(p.timed, "inventory"), 0.5) / 1e3}
	m["cpu_s"] = metric{Value: p.cpu / float64(len(p.timed)) * 1000}
	m["peak_heap_mb"] = metric{Value: p.peakMB}
	m["req_p50_ms"] = metric{Value: orZero(all, 0.5)}
	m["req_p99_ms"] = metric{Value: orZero(all, 0.99)}
	m["req_per_s"] = metric{Value: float64(len(p.timed)) / p.elapsed}
	fmt.Fprintf(os.Stderr, "perfbench: serve: %d requests (%d misses) in %.1f s\n", len(p.timed), len(misses), p.elapsed)
	return p.res, nil
}

func serveTrace(seed int64, seconds float64) (result, error) {
	p, err := runServe(seed, seconds)
	if err != nil {
		return result{}, err
	}
	hits, misses := split(p.timed)
	m := p.res.Metrics
	m["service.hit_p50_ms"] = metric{Value: orZero(latencies(hits, ""), 0.5)}
	m["service.hit_p99_ms"] = metric{Value: orZero(latencies(hits, ""), 0.99)}
	m["service.miss_p50_ms"] = metric{Value: orZero(latencies(misses, ""), 0.5)}
	for _, ep := range missEndpoints {
		m["service."+ep+".miss_p50_ms"] = metric{Value: orZero(latencies(misses, ep), 0.5)}
	}
	b, a := p.before, p.after
	memoHits, memoMisses := a.Memo.Hits-b.Memo.Hits, a.Memo.Misses-b.Memo.Misses
	ratio := 0.0
	if memoHits+memoMisses > 0 {
		ratio = float64(memoHits) / float64(memoHits+memoMisses)
	}
	m["service.collapsed"] = metric{Value: float64(a.Collapsed - b.Collapsed)}
	m["service.memo.hit_ratio"] = metric{Value: ratio}
	m["analysis.memo.hits"] = metric{Value: float64(memoHits)}
	m["analysis.memo.misses"] = metric{Value: float64(memoMisses)}
	m["analysis.memo.hit_ratio"] = metric{Value: ratio}
	m["store.hits"] = metric{Value: float64(a.Store.Hits - b.Store.Hits)}
	m["store.misses"] = metric{Value: float64(a.Store.Misses - b.Store.Misses)}
	m["store.puts"] = metric{Value: float64(a.Store.Puts - b.Store.Puts)}

	spans := make([]span, len(p.timed))
	for i, s := range p.timed {
		kind := "miss"
		if s.cached {
			kind = "hit"
		} else if s.collapsed {
			kind = "collapsed"
		}
		spans[i] = span{Name: "service." + s.endpoint, Parent: -1, Start: s.start, End: s.end, Detail: kind}
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve traced: %d hits, %d misses, %d collapsed\n", len(hits), len(misses), a.Collapsed-b.Collapsed)
	return p.res, writeSpans("serve-mixed", seed, spans)
}

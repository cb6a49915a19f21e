package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"ringlang"
	"ringlang/internal/core"
	"ringlang/internal/exec"
	"ringlang/internal/lang"
	"ringlang/internal/memo"
	"ringlang/internal/ring"
	"ringlang/internal/server"
)

// The traced run replays a workload in process, one layer at a time. It
// builds the stack from the public constructors with ringserve's defaults,
// replays part of the workload's stream (tracedStream, after the same
// warm-up as an end-to-end run) and times each layer from outside, through
// its public functions:
//
//   - where an interface lets it wrap the callee (ring.Scheduler, ring.Node)
//     spans nest, and a layer's self time is its span minus its children;
//   - elsewhere the same input is replayed one layer down, and self time is
//     the difference (handler minus memo lookup minus the engine path;
//     Client.Recognize minus core.Run; core.Run minus NewNodes minus RunWith).
//
// Replays whose times are subtracted from each other run interleaved word by
// word, or as whole passes repeated in reverse order, so drift falls on both
// sides. The run holds GOMAXPROCS at 1, so every replay's wall time is its
// CPU time and the parts of a request add up; the servers keep ringserve's
// default pool size for this host.

// tracedHot is how many hot-recognize requests the traced run replays.
const tracedHot = 3000

// tracedStream returns the timed-phase requests the traced run replays, in
// stream order. On hot-recognize they are the first tracedHot. On cold-batch
// they are, from the stream's first block, the first request of every
// (algorithm, size, sequential or random) stratum: 32 requests with the same
// sizes and keys under every seed, since an engine run's cost grows with
// its ring size and differs by algorithm.
func tracedStream(gen *generator) []request {
	var reqs []request
	if gen.workload == hotRecognize {
		for range tracedHot {
			reqs = append(reqs, gen.next())
		}
		return reqs
	}
	type stratum struct {
		algo       string
		n          int
		sequential bool
	}
	seen := make(map[stratum]bool)
	for range coldBlock {
		r := gen.next()
		s := stratum{r.algo, len(r.words[0]), r.sched.name == "sequential"}
		if !seen[s] {
			seen[s] = true
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// traced is a traced run's outcome.
type traced struct {
	metrics map[string]metric
	check   tally
	record  map[string]any
}

// replayKey is one client key of the workload with what every replay layer
// needs for it.
type replayKey struct {
	rec    core.Recognizer
	engine ring.Engine
	sched  schedule
}

type tracer struct {
	workload string
	workers  int
	ctx      context.Context
	log      *spanLog
	warm     []request
	reqs     []request
	bodies   [][]byte // the requests' JSON bodies
	keys     map[clientKey]*replayKey
	m        map[string]metric
	record   map[string]any
}

func runTraced(o options) (*traced, error) {
	runtime.GOMAXPROCS(1)
	gen, err := newGenerator(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t := &tracer{
		workload: o.workload,
		workers:  runtime.NumCPU(),
		ctx:      ctx, // cancelable, like a request's: the engine polls it
		log:      newSpanLog(),
		warm:     gen.warmup(),
		reqs:     tracedStream(gen),
		keys:     make(map[clientKey]*replayKey),
		m:        make(map[string]metric),
		record:   make(map[string]any),
	}
	for i := range t.reqs {
		t.bodies = append(t.bodies, t.reqs[i].body())
	}
	for _, r := range append(append([]request(nil), t.warm...), t.reqs...) {
		if err := t.addKey(r); err != nil {
			return nil, err
		}
	}

	answers, err := t.requestLayers()
	if err != nil {
		return nil, err
	}
	check, err := verify(newReferences(), answers, o.workload == hotRecognize)
	if err != nil {
		return nil, err
	}
	for _, layer := range []func() error{t.ringlangLayer, t.coreLayer, t.ringLayer} {
		runtime.GC()
		if err := layer(); err != nil {
			return nil, err
		}
	}
	t.bitsLayer()

	sh := measureShares(t.warm, answers)
	t.put("workload.repeat_share", sh.Repeat, "ratio")
	t.put("workload.prefix_family_share", sh.PrefixFamily, "ratio")
	t.put("workload.reuse_share", sh.Reuse, "ratio")
	t.record["shares"] = sh
	t.record["words"] = check.words
	t.record["first_problem"] = check.example
	t.record["spans_stored"] = len(t.log.spans)
	t.record["spans_not_stored"] = t.log.dropped
	t.record["sample_every_ncalls"] = sampleEvery

	path, err := t.log.write(filepath.Join(o.root, ".bench_build", "traces"), fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err != nil {
		return nil, err
	}
	t.record["spans_file"] = path
	return &traced{metrics: t.m, check: check, record: t.record}, nil
}

func (t *tracer) put(name string, v float64, unit string) { t.m[name] = metric{v, unit} }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func (t *tracer) addKey(r request) error {
	k := clientKey{r.algo, r.sched}
	if t.keys[k] != nil {
		return nil
	}
	rec, err := core.NewRecognizerByName(r.algo, "")
	if err != nil {
		return err
	}
	engine, err := ring.NewEngineByName(r.sched.name, r.sched.seed)
	if err != nil {
		return err
	}
	t.keys[k] = &replayKey{rec: rec, engine: engine, sched: r.sched}
	return nil
}

func (t *tracer) key(r *request) *replayKey { return t.keys[clientKey{r.algo, r.sched}] }

// serverConfig is ringserve's default configuration on this host: the
// defaults it derives from GOMAXPROCS are pinned to the CPU count, since the
// traced run itself holds GOMAXPROCS at 1.
func (t *tracer) serverConfig() server.Config {
	return server.Config{Workers: t.workers, MaxInFlight: 4 * t.workers}
}

// newClient builds a client as ringserve does for a key.
func (t *tracer) newClient(k *replayKey, prefix *ringlang.PrefixCache) (*ringlang.Client, error) {
	return ringlang.NewClient(k.rec.Name(), "",
		ringlang.WithSchedule(k.sched.name), ringlang.WithSeed(k.sched.seed),
		ringlang.WithWorkers(t.workers), ringlang.WithSharedPrefixCache(prefix))
}

// clientSet is one client per key sharing one prefix cache, as in ringserve.
type clientSet map[*replayKey]*ringlang.Client

func (t *tracer) newClientSet() (clientSet, error) {
	pc := ringlang.NewPrefixCache(server.DefaultPrefixCacheBytes)
	cs := make(clientSet)
	for _, k := range t.keys {
		c, err := t.newClient(k, pc)
		if err != nil {
			cs.close()
			return nil, err
		}
		cs[k] = c
	}
	return cs, nil
}

func (cs clientSet) close() {
	for _, c := range cs {
		c.Close()
	}
}

// workerStates runs core.Run as a pool worker does: a reused RunState and
// NodeReuse per key, and one shared prefix cache.
type workerStates struct {
	prefix *core.PrefixCache
	st     map[*replayKey]*ring.RunState
	reuse  map[*replayKey]*core.NodeReuse
}

func newWorkerStates() *workerStates {
	return &workerStates{
		prefix: core.NewPrefixCache(server.DefaultPrefixCacheBytes),
		st:     make(map[*replayKey]*ring.RunState),
		reuse:  make(map[*replayKey]*core.NodeReuse),
	}
}

func (ws *workerStates) run(ctx context.Context, k *replayKey, w lang.Word) (*ring.Result, error) {
	if ws.st[k] == nil {
		ws.st[k], ws.reuse[k] = ring.NewRunState(), core.NewNodeReuse()
	}
	return core.Run(k.rec, w, core.RunOptions{Engine: k.engine, State: ws.st[k], Ctx: ctx, Prefix: ws.prefix, Reuse: ws.reuse[k]})
}

// memoKey is the memo key ringserve builds for a word.
func memoKey(r *request, word string) memo.Key {
	seed := r.sched.seed
	if !ring.ScheduleUsesSeed(r.sched.name) {
		seed = 0
	}
	return memo.Key{Algorithm: r.algo, Schedule: ring.CanonicalScheduleName(r.sched.name), Seed: seed, Word: word}
}

// wordsOf returns the requests' words as ring words, with their requests.
func wordsOf(reqs []request) ([]lang.Word, []*request) {
	var ws []lang.Word
	var rs []*request
	for i := range reqs {
		for _, w := range reqs[i].words {
			ws = append(ws, lang.WordFromString(w))
			rs = append(rs, &reqs[i])
		}
	}
	return ws, rs
}

// requestLayers replays every request through the whole stack and through
// each layer below the HTTP handler:
//
//   - e2e: over one keep-alive loopback connection to an in-process server;
//   - transport: the same request to a handler that only reads the body and
//     writes the response the server gave (HTTP and net/http, no server work);
//   - handler: Handler().ServeHTTP on a server of its own;
//   - memo: Cache.Peek of the request's keys on a cache of the default size;
//   - engine path: the engine work the server does for memo misses,
//     Pool.RunBatchContext for a batch and Client.Recognize for one word;
//   - exec: the request's words as one Pool.RunBatchContext call, against
//     core.Run with a worker's reused state.
//
// Each replay builds its own stack, warms it up and replays every request
// in a row, so it runs with its own caches warm, as a server doing only that
// work would. The replays run twice, the second time in reverse order, so
// drift over the run falls on all of them alike. It returns the handler
// replay's answers for checking.
func (t *tracer) requestLayers() ([]answered, error) {
	var (
		e2e, transport, handler, peek, engine, batch, worker []time.Duration

		bodies     []cannedResponse
		answers    []answered
		caches     cacheDelta
		goroutines int
	)
	misses := t.memoMisses()
	replays := []func() error{
		func() (err error) {
			var d []time.Duration
			d, bodies, goroutines, err = t.replayLoopback()
			e2e = append(e2e, d...)
			return err
		},
		func() error {
			d, err := t.replayCanned(bodies)
			transport = append(transport, d...)
			return err
		},
		func() (err error) {
			var d []time.Duration
			d, answers, caches, err = t.replayHandler()
			handler = append(handler, d...)
			return err
		},
		func() error {
			peek = append(peek, t.replayMemo()...)
			return nil
		},
		func() error {
			b, e, err := t.replayEngine(misses)
			batch, engine = append(batch, b...), append(engine, e...)
			return err
		},
		func() error {
			d, err := t.replayWorker()
			worker = append(worker, d...)
			return err
		},
	}
	for pass := 0; pass < 2; pass++ {
		for i := range replays {
			if pass == 1 {
				i = len(replays) - 1 - i
			}
			if err := replays[i](); err != nil {
				return nil, err
			}
		}
	}

	words := 0
	for _, r := range t.reqs {
		words += len(r.words)
	}
	perReq := func(ds []time.Duration) float64 { return us(sum(ds)) / float64(len(ds)) }
	perWord := func(ds []time.Duration) float64 { return us(sum(ds)) / float64(2*words) }
	e2eP50, handlerP50 := percentile(e2e, 0.5), percentile(handler, 0.5)
	t.put("server.handler_us", us(handlerP50), "us")
	t.put("server.transport_us", us(e2eP50-handlerP50), "us")
	t.put("memo.hit_ratio", caches.MemoHitRatio, "ratio")
	t.put("memo.evictions", float64(caches.MemoEvictions), "count")
	t.put("memo.prefix_hit_ratio", caches.PrefixHitRatio, "ratio")
	t.put("memo.prefix_bytes", float64(caches.PrefixBytes), "bytes")
	t.put("memo.prefix_evictions", float64(caches.PrefixEvictions), "count")
	t.put("memo.peek_ns", 1000*perWord(peek), "ns")
	t.put("exec.batch_us_per_word", perWord(batch), "us")
	t.put("exec.overhead_us_per_word", perWord(batch)-perWord(worker), "us")
	t.put("exec.goroutines", float64(goroutines), "count")

	// The ledger: the whole request against the parts measured directly.
	// What no part covers is the server's own code (decoding, admission,
	// encoding) and whatever the parts miss.
	whole := perReq(e2e)
	parts := perReq(transport) + perReq(peek) + perReq(engine)
	t.put("trace.unattributed_ratio", (whole-parts)/whole, "ratio")
	t.record["ledger_us_per_request"] = map[string]float64{
		"e2e_loopback":     whole,
		"transport_canned": perReq(transport),
		"handler":          perReq(handler),
		"memo_peek":        perReq(peek),
		"engine_path":      perReq(engine),
		"server_self":      perReq(handler) - perReq(peek) - perReq(engine),
		"unattributed":     whole - parts,
	}
	t.record["requests_replayed"] = len(t.reqs)
	t.record["healthz"] = caches
	return answers, nil
}

// eachRequest calls fn for every request in a row, after a collection. fn
// returns the time of the part of its work that is measured; that time is
// also stored as a span ending when fn returns.
func (t *tracer) eachRequest(name string, fn func(i int, r *request) (time.Duration, error)) ([]time.Duration, error) {
	runtime.GC()
	durs := make([]time.Duration, len(t.reqs))
	for i := range t.reqs {
		d, err := fn(i, &t.reqs[i])
		if err != nil {
			return nil, err
		}
		end := t.log.now()
		t.log.add(name, end-d, end, -1, int32(i))
		durs[i] = d
	}
	return durs, nil
}

// timed returns how long fn took.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// replayLoopback replays the requests over one keep-alive connection to an
// in-process server. It also returns the responses and the goroutines the
// warmed server holds: its pools, its listener and the connection.
func (t *tracer) replayLoopback() ([]time.Duration, []cannedResponse, int, error) {
	before := runtime.NumGoroutine()
	srv := server.New(t.serverConfig())
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cn := newConn(hs.URL)
	defer cn.close()
	for i := range t.warm {
		r := &t.warm[i]
		if status, resp, err := cn.post(t.ctx, r.path, r.body()); err != nil || status != http.StatusOK {
			return nil, nil, 0, fmt.Errorf("traced warm-up: status %d: %v %.200s", status, err, resp)
		}
	}
	goroutines := runtime.NumGoroutine() - before
	bodies := make([]cannedResponse, len(t.reqs))
	durs, err := t.eachRequest("e2e.loopback", func(i int, r *request) (time.Duration, error) {
		return timed(func() error {
			status, resp, err := cn.post(t.ctx, r.path, t.bodies[i])
			bodies[i] = cannedResponse{status: status, body: resp}
			return err
		})
	})
	return durs, bodies, goroutines, err
}

// replayCanned replays the requests to a handler that only reads the body
// and writes the given response.
func (t *tracer) replayCanned(bodies []cannedResponse) ([]time.Duration, error) {
	var next atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a short read only shortens the replay
		c := bodies[next.Add(1)-1]
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(c.status)
		_, _ = w.Write(c.body) // the client sees a broken connection
	}))
	defer hs.Close()
	cn := newConn(hs.URL)
	defer cn.close()
	return t.eachRequest("http.transport", func(i int, r *request) (time.Duration, error) {
		var resp []byte
		d, err := timed(func() (err error) {
			_, resp, err = cn.post(t.ctx, r.path, t.bodies[i])
			return err
		})
		if err == nil && !bytes.Equal(resp, bodies[i].body) {
			err = fmt.Errorf("canned transport replay: response %d differs", i)
		}
		return d, err
	})
}

// replayHandler replays the requests through Handler().ServeHTTP and reads
// the cache counters around the replay.
func (t *tracer) replayHandler() ([]time.Duration, []answered, cacheDelta, error) {
	srv := server.New(t.serverConfig())
	defer srv.Close()
	h := srv.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(t.ctx)
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	health := func() (healthz, error) {
		var hz healthz
		if err := json.Unmarshal(serve(http.MethodGet, "/healthz", nil).Body.Bytes(), &hz); err != nil {
			return hz, fmt.Errorf("decode in-process /healthz: %w", err)
		}
		return hz, nil
	}
	for _, r := range t.warm {
		if w := serve(http.MethodPost, r.path, r.body()); w.Code != http.StatusOK {
			return nil, nil, cacheDelta{}, fmt.Errorf("traced warm-up: status %d: %.200s", w.Code, w.Body.Bytes())
		}
	}
	before, err := health()
	if err != nil {
		return nil, nil, cacheDelta{}, err
	}
	answers := make([]answered, len(t.reqs))
	durs, err := t.eachRequest("server.handler", func(i int, r *request) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(t.bodies[i])).WithContext(t.ctx)
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		d, _ := timed(func() error { h.ServeHTTP(w, req); return nil })
		answers[i] = answered{req: *r, outcomes: parseAnswers(r, w.Code, w.Body.Bytes(), nil)}
		return d, nil
	})
	if err != nil {
		return nil, nil, cacheDelta{}, err
	}
	after, err := health()
	return durs, answers, delta(before, after), err
}

// memoMisses returns, per request, the words that miss the memo cache: the
// server runs the engine for those.
func (t *tracer) memoMisses() [][]string {
	cache := memo.New[*ringlang.Report](server.DefaultCacheCapacity, 0)
	placeholder := &ringlang.Report{}
	for i := range t.warm {
		for _, w := range t.warm[i].words {
			cache.Put(memoKey(&t.warm[i], w), placeholder)
		}
	}
	misses := make([][]string, len(t.reqs))
	for i := range t.reqs {
		r := &t.reqs[i]
		for _, w := range r.words {
			if _, ok := cache.Peek(memoKey(r, w)); !ok {
				misses[i] = append(misses[i], w)
				cache.Put(memoKey(r, w), placeholder)
			}
		}
	}
	return misses
}

// replayMemo replays the requests' memo lookups on a cache of ringserve's
// default size, storing each miss as the server would. Only the lookups are
// timed.
func (t *tracer) replayMemo() []time.Duration {
	cache := memo.New[*ringlang.Report](server.DefaultCacheCapacity, 0)
	placeholder := &ringlang.Report{}
	for i := range t.warm {
		for _, w := range t.warm[i].words {
			cache.Put(memoKey(&t.warm[i], w), placeholder)
		}
	}
	runtime.GC()
	durs := make([]time.Duration, len(t.reqs))
	for i := range t.reqs {
		r := &t.reqs[i]
		keys := make([]memo.Key, len(r.words))
		for j, w := range r.words {
			keys[j] = memoKey(r, w)
		}
		hit := make([]bool, len(keys))
		start := t.log.now()
		for j, k := range keys {
			_, hit[j] = cache.Peek(k)
		}
		end := t.log.now()
		t.log.add("memo.peek", start, end, -1, int32(i))
		durs[i] = max(0, end-start-t.log.overhead)
		for j, k := range keys {
			if !hit[j] {
				cache.Put(k, placeholder)
			}
		}
	}
	return durs
}

// replayEngine replays the engine work: every request's words as one
// Pool.RunBatchContext call on the key's pool (the exec layer), and the
// server's engine path for the memo misses.
func (t *tracer) replayEngine(misses [][]string) (batch, engine []time.Duration, err error) {
	prefix := core.NewPrefixCache(server.DefaultPrefixCacheBytes)
	pools := make(map[*replayKey]*exec.Pool)
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	runBatch := func(r *request) (time.Duration, error) {
		k := t.key(r)
		if pools[k] == nil {
			pools[k] = exec.NewPool(t.workers)
		}
		jobs := make([]exec.Job, len(r.words))
		for j, w := range r.words {
			jobs[j] = exec.Job{Rec: k.rec, Word: lang.WordFromString(w), Engine: k.engine, Prefix: prefix}
		}
		return timed(func() error {
			for _, x := range pools[k].RunBatchContext(t.ctx, jobs) {
				if x.Err != nil {
					return fmt.Errorf("pool replay: %w", x.Err)
				}
			}
			return nil
		})
	}
	clients, err := t.newClientSet()
	if err != nil {
		return nil, nil, err
	}
	defer clients.close()
	for i := range t.warm {
		r := &t.warm[i]
		if _, err := runBatch(r); err != nil {
			return nil, nil, err
		}
		if r.path == recognizePath {
			if _, err := clients[t.key(r)].Recognize(t.ctx, lang.WordFromString(r.words[0])); err != nil {
				return nil, nil, err
			}
		}
	}
	engine, err = t.eachRequest("engine.path", func(i int, r *request) (time.Duration, error) {
		switch {
		case r.path == batchPath && len(misses[i]) != len(r.words):
			return 0, fmt.Errorf("batch request %d hit the memo cache", i)
		case r.path == batchPath:
			return runBatch(r)
		case len(misses[i]) == 0:
			return 0, nil // a memo hit runs no engine
		}
		w := lang.WordFromString(misses[i][0])
		return timed(func() error {
			_, err := clients[t.key(r)].Recognize(t.ctx, w)
			return err
		})
	})
	if err != nil || t.reqs[0].path == batchPath {
		return engine, engine, err
	}
	// Single-word requests: the pool replay runs on its own.
	batch, err = t.eachRequest("exec.batch", func(_ int, r *request) (time.Duration, error) {
		return runBatch(r)
	})
	return batch, engine, err
}

// replayWorker replays the requests' words through core.Run as a pool
// worker runs it.
func (t *tracer) replayWorker() ([]time.Duration, error) {
	workers := newWorkerStates()
	for i := range t.warm {
		r := &t.warm[i]
		for _, w := range r.words {
			if _, err := workers.run(t.ctx, t.key(r), lang.WordFromString(w)); err != nil {
				return nil, err
			}
		}
	}
	return t.eachRequest("core.run(worker)", func(_ int, r *request) (time.Duration, error) {
		ws, _ := wordsOf([]request{*r})
		return timed(func() error {
			for _, w := range ws {
				if _, err := workers.run(t.ctx, t.key(r), w); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

type cannedResponse struct {
	status int
	body   []byte
}

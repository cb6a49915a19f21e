package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// setups is how many times a run starts ringserve and warms it up; setup_s
// is the median, and the last server serves the timed phase.
const setups = 5

// e2eRecord is everything one end-to-end run measured.
type e2eRecord struct {
	setupSeconds []float64
	phase        time.Duration
	latencies    []time.Duration // per request, from the send
	cpu          time.Duration   // ringserve CPU over the timed phase
	peakRSSMiB   float64
	caches       cacheDelta
	check        tally
	shares       shares
	flags        []string
	requests     int
}

// runEndToEnd measures one workload against a ringserve process. A set-up
// is timed from the process start to the last warm-up answer; the answers
// are checked after the timed phase, with the server stopped, so neither
// set-up nor the timed phase pays for the benchmark's reference runs.
func runEndToEnd(ctx context.Context, o options) (*e2eRecord, error) {
	rec := &e2eRecord{}
	var (
		srv        *serverProc
		gen        *generator
		warm       []request
		warmAnswer []answered // every set-up's warm-up answers
	)
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.stop()
		}
		var err error
		gen, err = newGenerator(o.workload, o.seed)
		if err != nil {
			return nil, err
		}
		warm = gen.warmup()
		start := time.Now()
		srv, err = startServer(ctx, o.serverBin)
		if err != nil {
			return nil, err
		}
		answers := warmUp(ctx, srv.base, o.conns, warm)
		rec.setupSeconds = append(rec.setupSeconds, time.Since(start).Seconds())
		if why := firstFailure(answers); why != "" {
			srv.stop()
			return nil, fmt.Errorf("warm-up: a word failed: %s", why)
		}
		warmAnswer = append(warmAnswer, answers...)
	}
	defer srv.stop()
	rec.flags = srv.flags

	probe := newConn(srv.base)
	defer probe.close()
	before, err := probe.getHealthz(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	items, lats, phase := closedLoop(ctx, srv.base, o.conns, gen, o.seconds)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	after, err := probe.getHealthz(ctx)
	if err != nil {
		return nil, err
	}
	if rec.peakRSSMiB, err = srv.peakRSS(); err != nil {
		return nil, err
	}
	srv.stop()
	rec.latencies, rec.phase = lats, phase
	rec.cpu = cpu1 - cpu0
	rec.caches = delta(before, after)
	rec.requests = len(items)
	rec.shares = measureShares(warm, items)

	// A run whose set-up went wrong measures nothing.
	refs := newReferences()
	t, err := verify(refs, warmAnswer, false)
	if err != nil {
		return nil, err
	}
	if t.wrong > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d words were answered wrongly: %s", t.wrong, t.words, t.example)
	}
	rec.check, err = verify(refs, items, o.workload == hotRecognize)
	return rec, err
}

// warmUp sends the set-up requests over conns connections and returns the
// answers once the last one has arrived.
func warmUp(ctx context.Context, base string, conns int, warm []request) []answered {
	items := make([]answered, len(warm))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := newConn(base)
			defer cn.close()
			for i := c; i < len(warm); i += conns {
				status, body, err := cn.post(ctx, warm[i].path, warm[i].body())
				items[i] = answered{req: warm[i], outcomes: parseAnswers(&warm[i], status, body, err)}
			}
		}(c)
	}
	wg.Wait()
	return items
}

// closedLoop sends the generator's requests over conns connections, each
// sending its next request when the previous answer arrives, until seconds
// have passed. Latency is timed from the send.
func closedLoop(ctx context.Context, base string, conns int, gen *generator, seconds int) ([]answered, []time.Duration, time.Duration) {
	var (
		mu    sync.Mutex
		items []answered
		lats  []time.Duration
		wg    sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := newConn(base)
			defer cn.close()
			for time.Now().Before(deadline) {
				mu.Lock()
				req := gen.next()
				mu.Unlock()
				body := req.body()
				t0 := time.Now()
				status, resp, err := cn.post(ctx, req.path, body)
				lat := time.Since(t0)
				outs := parseAnswers(&req, status, resp, err)
				mu.Lock()
				items = append(items, answered{req: req, outcomes: outs})
				lats = append(lats, lat)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return items, lats, time.Since(start)
}

// percentile returns the q-quantile (0 < q ≤ 1) of ds by the nearest-rank
// rule; ds is sorted in place.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(q*float64(len(ds))+0.999999) - 1
	return ds[max(0, min(k, len(ds)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// e2eMetrics turns a record into the end-to-end metrics.
func e2eMetrics(r *e2eRecord) map[string]metric {
	answered := r.check.words - r.check.failed
	good := answered - r.check.wrong
	return map[string]metric{
		"setup_s":         {median(r.setupSeconds), "s"},
		"words_per_s":     {float64(good) / r.phase.Seconds(), "1/s"},
		"latency_p50_ms":  {ms(percentile(r.latencies, 0.50)), "ms"},
		"latency_p99_ms":  {ms(percentile(r.latencies, 0.99)), "ms"},
		"cpu_ms_per_word": {ms(r.cpu) / float64(max(answered, 1)), "ms"},
		"peak_rss_mib":    {r.peakRSSMiB, "MiB"},
	}
}

// e2eRecordJSON is the record line of an end-to-end run.
func e2eRecordJSON(r *e2eRecord) map[string]any {
	errorRatio := 0.0
	if r.check.words > 0 {
		errorRatio = float64(r.check.failed+r.check.wrong) / float64(r.check.words)
	}
	return map[string]any{
		"setup_s_samples": r.setupSeconds,
		"phase_s":         r.phase.Seconds(),
		"requests":        r.requests,
		"words":           r.check.words,
		"words_failed":    r.check.failed,
		"words_wrong":     r.check.wrong,
		"error_ratio":     metric{errorRatio, "ratio"},
		"server_cpu_s":    r.cpu.Seconds(),
		"healthz":         r.caches,
		"shares":          r.shares,
		"first_problem":   r.check.example,
	}
}

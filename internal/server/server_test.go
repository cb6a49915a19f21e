package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ringlang"
)

// newTestServer wires a Server into an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJSON posts a runRequest body and decodes the response JSON into out.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// memberWord builds a large 0^k1^k2^k member word.
func memberWord(k int) string {
	return strings.Repeat("0", k) + strings.Repeat("1", k) + strings.Repeat("2", k)
}

func TestRecognizeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got reportPayload
	status := postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Word: "001122"}, &got)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if got.Verdict != "accept" || !got.Member || got.Bits != 72 || got.Processors != 6 {
		t.Errorf("report = %+v", got)
	}
	if got.Cached {
		t.Error("first request reported cached=true")
	}
	if got.Schedule != "sequential" {
		t.Errorf("defaulted schedule = %q", got.Schedule)
	}
	// The same word again is a cache hit: no engine run, cached=true.
	status = postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Word: "001122"}, &got)
	if status != http.StatusOK || !got.Cached {
		t.Errorf("repeat: status=%d cached=%v", status, got.Cached)
	}
}

func TestRecognizeUnknownAlgorithm(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var got errorPayload
	status := postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "no-such-thing", Word: "01"}, &got)
	if status != http.StatusBadRequest || got.Code != "unknown-algorithm" {
		t.Errorf("status=%d payload=%+v", status, got)
	}
	status = postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Schedule: "bogus", Word: "01"}, &got)
	if status != http.StatusBadRequest || got.Code != "unknown-schedule" {
		t.Errorf("status=%d payload=%+v", status, got)
	}

	// "concurrent" named the deleted goroutine-per-processor engine: every
	// run endpoint refuses it as an unknown schedule before any engine work,
	// so the cache records no miss.
	missesBefore := s.CacheStats().Misses
	for _, tc := range []struct {
		endpoint string
		req      runRequest
	}{
		{"/v1/recognize", runRequest{Algorithm: "majority", Schedule: "concurrent", Word: "110101"}},
		{"/v1/batch", runRequest{Algorithm: "majority", Schedule: "concurrent", Words: []string{"110101", "0011"}}},
	} {
		got = errorPayload{}
		status = postJSON(t, ts.URL+tc.endpoint, tc.req, &got)
		if status != http.StatusBadRequest || got.Code != "unknown-schedule" {
			t.Errorf("%s concurrent: status=%d payload=%+v", tc.endpoint, status, got)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stream?algorithm=majority&schedule=concurrent&words=110101,0011")
	if err != nil {
		t.Fatal(err)
	}
	got = errorPayload{}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || got.Code != "unknown-schedule" {
		t.Errorf("/v1/stream concurrent: status=%d payload=%+v err=%v", resp.StatusCode, got, err)
	}
	if misses := s.CacheStats().Misses; misses != missesBefore {
		t.Errorf("refused concurrent requests changed cache misses %d -> %d", missesBefore, misses)
	}
}

// TestBatchPerWordErrors pins the serving tier to the library's no-fail-all
// contract: a bad word inside a batch gets its own error entry and the words
// around it keep their reports.
func TestBatchPerWordErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got struct {
		Results []wordResult `json:"results"`
	}
	status := postJSON(t, ts.URL+"/v1/batch", runRequest{
		Algorithm: "three-counters",
		Words:     []string{"001122", "0a1", "000111222", ""},
	}, &got)
	if status != http.StatusOK {
		t.Fatalf("status = %d (batch must not fail-all)", status)
	}
	if len(got.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(got.Results))
	}
	if r := got.Results[0]; r.Error != "" || r.Report == nil || r.Report.Verdict != "accept" {
		t.Errorf("good word 0 = %+v", r)
	}
	if r := got.Results[1]; r.Error == "" || r.Report != nil || r.Code != "run-failed" {
		t.Errorf("off-alphabet word 1 should fail alone: %+v", r)
	}
	if r := got.Results[2]; r.Error != "" || r.Report == nil || !r.Report.Member {
		t.Errorf("good word 2 = %+v", r)
	}
	if r := got.Results[3]; r.Error == "" {
		t.Errorf("empty word 3 should fail: %+v", r)
	}
}

// TestBatchServesHitsFromCache warms one word, then batches it with a cold
// one: the warm word must come back cached with zero additional engine runs
// (the miss counter must grow only for the cold word).
func TestBatchServesHitsFromCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status := postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Word: "001122"}, nil); status != http.StatusOK {
		t.Fatalf("warmup status = %d", status)
	}
	missesBefore := s.CacheStats().Misses
	var got struct {
		Results []wordResult `json:"results"`
	}
	// An all-warm batch is pure hit path: zero cache misses, zero engine runs.
	postJSON(t, ts.URL+"/v1/batch", runRequest{
		Algorithm: "three-counters",
		Words:     []string{"001122", "001122"},
	}, &got)
	if !got.Results[0].Report.Cached || !got.Results[1].Report.Cached {
		t.Errorf("warmed batch not served from cache: %+v", got.Results)
	}
	if misses := s.CacheStats().Misses - missesBefore; misses != 0 {
		t.Errorf("all-warm batch recorded %d cache misses, want 0", misses)
	}
	// A mixed batch runs the engine only for the cold word.
	postJSON(t, ts.URL+"/v1/batch", runRequest{
		Algorithm: "three-counters",
		Words:     []string{"001122", "000111222"},
	}, &got)
	if !got.Results[0].Report.Cached {
		t.Error("warmed word not served from cache")
	}
	if got.Results[1].Report.Cached {
		t.Error("cold word claims to be cached")
	}
	if misses := s.CacheStats().Misses - missesBefore; misses != 1 {
		t.Errorf("mixed batch recorded %d cache misses, want 1 (the cold word)", misses)
	}
}

// TestConcurrentIdenticalRequestsRunOnce is the thundering-herd guarantee,
// run under -race in CI: N identical concurrent requests produce one engine
// run (one cache miss); everyone gets the same report. MaxInFlight is 1 on
// purpose — admission happens inside the singleflight compute, so the herd
// needs exactly one slot, and waiters never starve unrelated admission.
func TestConcurrentIdenticalRequestsRunOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	word := memberWord(64)
	const callers = 16
	var wg sync.WaitGroup
	bits := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var got reportPayload
			status := postJSON(t, ts.URL+"/v1/recognize",
				runRequest{Algorithm: "three-counters", Word: word}, &got)
			if status != http.StatusOK {
				t.Errorf("caller %d: status %d", i, status)
				return
			}
			bits[i] = got.Bits
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if bits[i] != bits[0] {
			t.Errorf("caller %d saw bits=%d, caller 0 saw %d", i, bits[i], bits[0])
		}
	}
	st := s.CacheStats()
	if st.Misses != 1 {
		t.Errorf("cache recorded %d misses for one key, want exactly 1 engine run", st.Misses)
	}
	if st.Hits != callers-1 {
		t.Errorf("cache recorded %d hits, want %d", st.Hits, callers-1)
	}
}

// TestStreamCompletionOrderNDJSON reads a whole stream and checks every word
// arrives exactly once with a valid report.
func TestStreamCompletionOrderNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/stream?algorithm=three-counters&words=001122,000111222,012012"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	seen := make(map[int]wordResult)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var res wordResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if _, dup := seen[res.Index]; dup {
			t.Errorf("index %d yielded twice", res.Index)
		}
		seen[res.Index] = res
	}
	if len(seen) != 3 {
		t.Fatalf("stream yielded %d results, want 3", len(seen))
	}
	for i, res := range seen {
		if res.Error != "" || res.Report == nil {
			t.Errorf("word %d: %+v", i, res)
		}
	}
	// 012012 is a non-member: verdict must say so.
	if seen[2].Report.Member || seen[2].Report.Verdict != "reject" {
		t.Errorf("non-member word = %+v", seen[2].Report)
	}
}

func TestStreamSSEFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/stream?algorithm=majority&word=110101", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(body), "data: {") {
		t.Errorf("SSE body = %q", body)
	}
}

// TestStreamClientDisconnectCancels is the serving half of the cancellation
// story: dropping the connection mid-stream must cancel the remaining words
// through the request context, observed server-side as ErrCanceled.
func TestStreamClientDisconnectCancels(t *testing.T) {
	done := make(chan error, 1)
	s, ts := newTestServer(t, Config{Workers: 1, CacheCapacity: -1})
	s.streamDone = func(err error) { done <- err }

	words := make([]string, 64)
	for i := range words {
		words[i] = memberWord(120 + i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	url := ts.URL + "/v1/stream?algorithm=three-counters&words=" + strings.Join(words, ",")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read one completed result, then drop the connection.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first stream line: %v", sc.Err())
	}
	var first wordResult
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("bad first line %q: %v", sc.Text(), err)
	}
	if first.Error != "" {
		t.Fatalf("first word already failed: %+v", first)
	}
	cancel()

	select {
	case err := <-done:
		if err == nil {
			t.Skip("stream finished before the disconnect landed; nothing to assert")
		}
		if !errors.Is(err, ringlang.ErrCanceled) {
			t.Errorf("stream terminal error = %v, want ErrCanceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream handler did not finish after client disconnect")
	}
}

func TestCatalogMatchesFacade(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Algorithms []string `json:"algorithms"`
		Languages  []string `json:"languages"`
		Schedules  []string `json:"schedules"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := ringlang.CurrentCatalog()
	if fmt.Sprint(got.Algorithms) != fmt.Sprint(want.Algorithms) ||
		fmt.Sprint(got.Languages) != fmt.Sprint(want.Languages) ||
		fmt.Sprint(got.Schedules) != fmt.Sprint(want.Schedules) {
		t.Errorf("catalog = %+v, want %+v", got, want)
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Warm one key: even a cached word must answer 503 after Close.
	if status := postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Word: "001122"}, nil); status != http.StatusOK {
		t.Fatalf("warmup status = %d", status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz = %d %+v", resp.StatusCode, health)
	}
	s.Close()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	// Run requests on a closed server answer 503/closed, never panic.
	var ep errorPayload
	status := postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Word: "001122"}, &ep)
	if status != http.StatusServiceUnavailable || ep.Code != "closed" {
		t.Errorf("closed recognize = %d %+v", status, ep)
	}
}

// TestPrefixTierServesSharedPrefixes drives distinct (uncacheable by the
// exact-hit memo tier) words sharing long prefixes through /v1/batch and
// checks the shared prefix-checkpoint cache engages, the reports stay
// correct, and /healthz surfaces the prefix counters next to the exact-hit
// cache's (evictions included — the field satellite of this PR).
func TestPrefixTierServesSharedPrefixes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	prefix := strings.Repeat("01", 24)
	words := []string{prefix + "0000", prefix + "0001", prefix + "0110", prefix + "1111"}
	var got struct {
		Results []wordResult `json:"results"`
	}
	status := postJSON(t, ts.URL+"/v1/batch",
		runRequest{Algorithm: "majority", Words: words}, &got)
	if status != http.StatusOK || len(got.Results) != len(words) {
		t.Fatalf("batch status=%d results=%d", status, len(got.Results))
	}
	for i, res := range got.Results {
		if res.Error != "" {
			t.Fatalf("word %d: %s", i, res.Error)
		}
		want := "reject"
		if res.Report.Member {
			want = "accept"
		}
		if res.Report.Verdict != want {
			t.Errorf("word %d (%q): verdict %q, language says %q", i, words[i], res.Report.Verdict, want)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status            string  `json:"status"`
		CacheEvictions    *uint64 `json:"cacheEvictions"`
		PrefixHits        uint64  `json:"prefixHits"`
		PrefixPartialHits uint64  `json:"prefixPartialHits"`
		PrefixMisses      uint64  `json:"prefixMisses"`
		PrefixEntries     int     `json:"prefixEntries"`
		PrefixBytes       int64   `json:"prefixBytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.CacheEvictions == nil {
		t.Error("healthz omits cacheEvictions")
	}
	if health.PrefixHits+health.PrefixPartialHits == 0 {
		t.Errorf("prefix tier never hit across shared-prefix words: %+v", health)
	}
	if health.PrefixEntries == 0 || health.PrefixBytes == 0 {
		t.Errorf("prefix tier stored nothing: %+v", health)
	}
}

// TestPrefixTierDisabled pins the negative-budget switch: no prefix cache is
// built and /healthz reports zeros.
func TestPrefixTierDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{PrefixCacheBytes: -1})
	if s.prefix != nil {
		t.Fatal("negative PrefixCacheBytes built a cache")
	}
	status := postJSON(t, ts.URL+"/v1/batch",
		runRequest{Algorithm: "majority", Words: []string{"0110", "0111"}}, nil)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if st := s.PrefixStats(); st != (ringlang.PrefixStats{}) {
		t.Errorf("disabled tier reported %+v", st)
	}
}

// TestBackpressure429 fills the admission semaphore and checks the server
// sheds load instead of queueing.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2})
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	var ep errorPayload
	status := postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Word: "001122"}, &ep)
	if status != http.StatusTooManyRequests || ep.Code != "overloaded" {
		t.Errorf("saturated recognize = %d %+v", status, ep)
	}
	<-s.sem
	<-s.sem
	if status := postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Word: "001122"}, nil); status != http.StatusOK {
		t.Errorf("post-drain recognize = %d", status)
	}
}

// TestSaturatedServerStillServesCacheHits pins the admission ordering: a
// pure cache hit costs no engine work, so it must be served even when every
// in-flight slot is taken — for single words, all-warm batches and the warm
// part of streams alike.
func TestSaturatedServerStillServesCacheHits(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	if status := postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Word: "001122"}, nil); status != http.StatusOK {
		t.Fatalf("warmup status = %d", status)
	}
	s.sem <- struct{}{} // saturate admission
	defer func() { <-s.sem }()
	var got reportPayload
	status := postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Word: "001122"}, &got)
	if status != http.StatusOK || !got.Cached {
		t.Errorf("saturated cache hit = %d cached=%v, want 200 from cache", status, got.Cached)
	}
	var batch struct {
		Results []wordResult `json:"results"`
	}
	status = postJSON(t, ts.URL+"/v1/batch", runRequest{
		Algorithm: "three-counters", Words: []string{"001122", "001122"},
	}, &batch)
	if status != http.StatusOK {
		t.Errorf("saturated all-warm batch = %d, want 200", status)
	}
	// A cold word still needs a slot and must be shed.
	var ep errorPayload
	status = postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Word: "000111222"}, &ep)
	if status != http.StatusTooManyRequests || ep.Code != "overloaded" {
		t.Errorf("saturated cold word = %d %+v, want 429", status, ep)
	}
}

// TestWordAndBodyLimits pins the request-size guards: an oversized body is
// cut off by MaxBytesReader, an oversized single word is rejected before an
// engine run, and inside a batch it fails per-word.
func TestWordAndBodyLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWordLetters: 8, MaxBodyBytes: 256})
	long := strings.Repeat("0", 9)
	var ep errorPayload
	status := postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Word: long}, &ep)
	if status != http.StatusRequestEntityTooLarge || ep.Code != "word-too-large" {
		t.Errorf("long word recognize = %d %+v", status, ep)
	}
	var batch struct {
		Results []wordResult `json:"results"`
	}
	status = postJSON(t, ts.URL+"/v1/batch", runRequest{
		Algorithm: "three-counters", Words: []string{"001122", long},
	}, &batch)
	if status != http.StatusOK {
		t.Fatalf("batch with one long word = %d, want 200 (per-word errors)", status)
	}
	if r := batch.Results[0]; r.Report == nil || r.Report.Verdict != "accept" {
		t.Errorf("good word alongside long one = %+v", r)
	}
	if r := batch.Results[1]; r.Code != "word-too-large" {
		t.Errorf("long word in batch = %+v", r)
	}
	manyWords := make([]string, 64)
	for i := range manyWords {
		manyWords[i] = "001122"
	}
	status = postJSON(t, ts.URL+"/v1/batch", runRequest{
		Algorithm: "three-counters",
		Words:     manyWords,
	}, &ep)
	if status != http.StatusRequestEntityTooLarge || ep.Code != "body-too-large" {
		t.Errorf("oversized body = %d %+v", status, ep)
	}
}

// TestBatchDeduplicatesRepeatedColdWords pins in-request dedup: N copies of
// one cold word in a single batch cost one engine run (one cache miss), and
// every copy still gets its own correctly indexed result.
func TestBatchDeduplicatesRepeatedColdWords(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var got struct {
		Results []wordResult `json:"results"`
	}
	status := postJSON(t, ts.URL+"/v1/batch", runRequest{
		Algorithm: "three-counters",
		Words:     []string{"000111222", "000111222", "001122", "000111222"},
	}, &got)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(got.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(got.Results))
	}
	for i, r := range got.Results {
		if r.Index != i || r.Report == nil || r.Report.Verdict != "accept" {
			t.Errorf("result %d = %+v", i, r)
		}
	}
	st := s.CacheStats()
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (one per distinct cold word)", st.Misses)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}

// TestBeginDrainKeepsServing pins the rollout contract: after BeginDrain,
// /healthz answers 503 draining (so load balancers stop routing) while the
// run endpoints keep serving until the listener actually closes.
func TestBeginDrainKeepsServing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
	var got reportPayload
	if status := postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Word: "001122"}, &got); status != http.StatusOK {
		t.Errorf("recognize during drain = %d, want 200", status)
	}
}

// TestSeedKeyNormalization pins the cache-safety rule: deterministic
// schedules share entries across seeds, randomized ones never do.
func TestSeedKeyNormalization(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var got reportPayload
	postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Schedule: "sequential", Seed: 5, Word: "001122"}, &got)
	postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Schedule: "fifo", Seed: 9, Word: "001122"}, &got)
	if !got.Cached {
		t.Error("deterministic schedule with a different seed (and alias name) missed the cache")
	}
	postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Schedule: "random", Seed: 5, Word: "001122"}, &got)
	if got.Cached {
		t.Error("random seed 5 was served from a deterministic entry")
	}
	postJSON(t, ts.URL+"/v1/recognize",
		runRequest{Algorithm: "three-counters", Schedule: "random", Seed: 9, Word: "001122"}, &got)
	if got.Cached {
		t.Error("random seed 9 shared seed 5's entry")
	}
	if st := s.CacheStats(); st.Entries != 3 {
		t.Errorf("entries = %d, want 3 (sequential, random/5, random/9)", st.Entries)
	}
}

func TestBatchTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchWords: 2})
	var ep errorPayload
	status := postJSON(t, ts.URL+"/v1/batch", runRequest{
		Algorithm: "three-counters",
		Words:     []string{"001122", "001122", "001122"},
	}, &ep)
	if status != http.StatusRequestEntityTooLarge || ep.Code != "batch-too-large" {
		t.Errorf("oversized batch = %d %+v", status, ep)
	}
}

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settledGoroutines returns the goroutine count once it has held still for
// a while, so goroutines that are already exiting are not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(5 * time.Second)
	for still := 0; still < 20 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// waitGoroutines polls until at most want goroutines are live and returns
// the last count seen.
func waitGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// churnRequest sends one recognize, batch or stream request (by kind) for a
// key no earlier request used: the random schedule under a fresh seed. It
// returns the status and, for refusals, the error code; a 200 must carry a
// report for every word.
func churnRequest(client *http.Client, base string, kind int, seed int64) (int, string, error) {
	words := []string{"001122", "000111222"}
	var (
		resp *http.Response
		err  error
	)
	switch kind {
	case 0:
		body, _ := json.Marshal(runRequest{Algorithm: "three-counters", Schedule: "random", Seed: seed, Word: words[0]})
		resp, err = client.Post(base+"/v1/recognize", "application/json", bytes.NewReader(body))
	case 1:
		body, _ := json.Marshal(runRequest{Algorithm: "three-counters", Schedule: "random", Seed: seed, Words: words})
		resp, err = client.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	default:
		q := url.Values{"algorithm": {"three-counters"}, "schedule": {"random"},
			"seed": {fmt.Sprint(seed)}, "words": {strings.Join(words, ",")}}
		resp, err = client.Get(base + "/v1/stream?" + q.Encode())
	}
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	if resp.StatusCode != http.StatusOK {
		var ep errorPayload
		if err := json.Unmarshal(data, &ep); err != nil {
			return resp.StatusCode, "", fmt.Errorf("decoding %q: %w", data, err)
		}
		return resp.StatusCode, ep.Code, nil
	}
	var results []wordResult
	switch kind {
	case 0:
		var got reportPayload
		if err := json.Unmarshal(data, &got); err != nil || got.Verdict != "accept" {
			return resp.StatusCode, "", fmt.Errorf("recognize answer %q: %v", data, err)
		}
		return resp.StatusCode, "", nil
	case 1:
		var got struct {
			Results []wordResult `json:"results"`
		}
		if err := json.Unmarshal(data, &got); err != nil {
			return resp.StatusCode, "", fmt.Errorf("decoding %q: %w", data, err)
		}
		results = got.Results
	default:
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			var res wordResult
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				return resp.StatusCode, "", fmt.Errorf("stream line %q: %w", sc.Text(), err)
			}
			results = append(results, res)
		}
	}
	if len(results) != len(words) {
		return resp.StatusCode, "", fmt.Errorf("%d results for %d words: %s", len(results), len(words), data)
	}
	for _, res := range results {
		if res.Report == nil || res.Report.Verdict != "accept" {
			return resp.StatusCode, "", fmt.Errorf("word %d answered %+v", res.Index, res)
		}
	}
	return resp.StatusCode, "", nil
}

// TestSharedPoolUnderKeyChurn drives recognize, batch and stream requests
// over far more distinct keys than the runner cache holds — a fresh random
// seed per request — from several goroutines, then closes the server in the
// middle of that traffic. Every answer must be a report, a 429 or a 503
// "closed". Key churn must not grow the server's goroutines (runners own
// none; the pool is fixed at New), and Close must bring the count back to
// where it started. Run under -race in CI.
func TestSharedPoolUnderKeyChurn(t *testing.T) {
	const senders = 4
	before := settledGoroutines()
	s := New(Config{Workers: 2, MaxInFlight: 4})
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	var seed atomic.Int64
	var closed atomic.Bool
	// drive sends requests with fresh seeds from every sender until the seed
	// counter reaches last, or, with last < 0, until a sender sees the
	// server refuse with "closed".
	drive := func(last int64) {
		var wg sync.WaitGroup
		for range senders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n := seed.Add(1)
					if last >= 0 && n > last {
						return
					}
					status, code, err := churnRequest(client, ts.URL, int(n%3), n)
					switch {
					case err != nil:
						t.Errorf("seed %d: status %d: %v", n, status, err)
						return
					case status == http.StatusOK, status == http.StatusTooManyRequests && code == "overloaded":
					case status == http.StatusServiceUnavailable && code == "closed":
						if !closed.Load() {
							t.Errorf("seed %d: 503 closed before Close", n)
						}
						return
					default:
						t.Errorf("seed %d: status %d code %q", n, status, code)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	idle := func() int {
		client.CloseIdleConnections()
		ts.CloseClientConnections()
		return settledGoroutines()
	}

	drive(10)
	after10 := idle()
	drive(200)
	if after200 := idle(); after200 != after10 {
		if now := waitGoroutines(after10); now != after10 {
			t.Errorf("goroutines after 200 keys = %d, after 10 keys = %d", now, after10)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		drive(-1)
	}()
	for seed.Load() < 230 {
		time.Sleep(time.Millisecond)
	}
	closed.Store(true)
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	<-done
	ts.Close()
	if now := waitGoroutines(before); now > before {
		t.Errorf("goroutines after Close = %d, before New = %d", now, before)
	}
}

// heapBytes returns the live heap after collecting garbage; the second
// collection also empties the sync.Pool victim caches.
func heapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestMemoBoundsBytesPerEntry pins the memo tier's byte bound: a cached
// answer keeps its key and a fixed-size payload, never the run's per-link
// stats (24 bytes per processor) or its run state. The cache is filled with
// distinct maximum-length words through /v1/batch and through /v1/recognize,
// and the heap each entry retains must stay a small multiple of the word.
func TestMemoBoundsBytesPerEntry(t *testing.T) {
	const (
		letters  = 1024
		capacity = 256
		warm     = 32
		// The word itself is 1 KiB of the key; per-link stats alone would be
		// 24 KiB.
		maxPerEntry = 4 << 10
	)
	for _, path := range []string{"/v1/batch", "/v1/recognize"} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, CacheCapacity: capacity, CacheShards: 1,
				MaxWordLetters: letters, PrefixCacheBytes: -1})
			rng := rand.New(rand.NewSource(5))
			word := func() string {
				b := make([]byte, letters)
				for i := range b {
					b[i] = byte('0' + rng.Intn(2))
				}
				return string(b)
			}
			send := func(count int) {
				for sent := 0; sent < count; sent += 32 {
					words := make([]string, min(32, count-sent))
					for i := range words {
						words[i] = word()
					}
					if path == "/v1/batch" {
						if status := postJSON(t, ts.URL+path, runRequest{Algorithm: "majority", Words: words}, nil); status != http.StatusOK {
							t.Fatalf("batch status %d", status)
						}
						continue
					}
					for _, w := range words {
						if status := postJSON(t, ts.URL+path, runRequest{Algorithm: "majority", Word: w}, nil); status != http.StatusOK {
							t.Fatalf("recognize status %d", status)
						}
					}
				}
			}
			// The warm-up grows the worker's run state and node rings to
			// this word length, so what the fill adds is the entries alone.
			send(warm)
			base := heapBytes()
			send(capacity - warm)
			grown := heapBytes()
			if st := s.CacheStats(); st.Entries != capacity || st.Evictions != 0 {
				t.Fatalf("cache holds %d entries with %d evictions, want %d and 0", st.Entries, st.Evictions, capacity)
			}
			perEntry := (float64(grown) - float64(base)) / float64(capacity-warm)
			t.Logf("%s: %.0f bytes retained per %d-letter entry", path, perEntry, letters)
			if perEntry > maxPerEntry {
				t.Errorf("%s: each cached %d-letter word retains %.0f bytes, want at most %d", path, letters, perEntry, maxPerEntry)
			}
		})
	}
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"ringlang"
	"ringlang/internal/exec"
	"ringlang/internal/lang"
)

// runRequest is the JSON body of /v1/recognize and /v1/batch (and the query
// parameters of /v1/stream): what to run, under which schedule, on which
// word(s).
type runRequest struct {
	Algorithm string   `json:"algorithm"`
	Language  string   `json:"language"`
	Schedule  string   `json:"schedule"`
	Seed      int64    `json:"seed"`
	Word      string   `json:"word"`
	Words     []string `json:"words"`
}

// reportPayload is the wire form of one engine run. It is a stable view,
// decoupled from the Go result structs, so refactors do not silently change
// the API.
type reportPayload struct {
	Algorithm        string  `json:"algorithm"`
	Language         string  `json:"language"`
	Word             string  `json:"word"`
	Verdict          string  `json:"verdict"`
	Member           bool    `json:"member"`
	Messages         int     `json:"messages"`
	Bits             int     `json:"bits"`
	BitsPerProcessor float64 `json:"bitsPerProcessor"`
	MaxMessageBits   int     `json:"maxMessageBits"`
	Processors       int     `json:"processors"`
	Schedule         string  `json:"schedule"`
	Cached           bool    `json:"cached"`
}

// ranWord is one engine run as a handler keeps it: the payload the memo
// cache stores, or the run's error.
type ranWord struct {
	payload reportPayload
	err     error
}

// ran renders one run of rn on word. It is called from the pool's deliver
// callback, while res.Stats is lent, and copies out only the totals: the
// payload is everything but the word and the cached flag, which served fills
// in per response, so a memo entry costs its key plus a fixed-size value,
// whatever the ring size.
func (rn *runner) ran(word lang.Word, res exec.Result) ranWord {
	if res.Err != nil {
		return ranWord{err: res.Err}
	}
	st := res.Stats
	return ranWord{payload: reportPayload{
		Algorithm:        rn.rec.Name(),
		Language:         rn.rec.Language().Name(),
		Verdict:          res.Verdict.String(),
		Member:           rn.rec.Language().Contains(word),
		Messages:         st.Messages,
		Bits:             st.Bits,
		BitsPerProcessor: st.BitsPerProcessor(),
		MaxMessageBits:   st.MaxMessageBits,
		Processors:       st.Processors,
		Schedule:         rn.schedule,
	}}
}

// served is the response form of a payload for one request's word.
func (p reportPayload) served(word string, cached bool) *reportPayload {
	p.Word = word
	p.Cached = cached
	return &p
}

// wordResult is one per-word outcome inside batch responses and stream
// lines: exactly one of Report and Error is set.
type wordResult struct {
	Index  int            `json:"index"`
	Report *reportPayload `json:"report,omitempty"`
	Error  string         `json:"error,omitempty"`
	Code   string         `json:"code,omitempty"`
}

// errorPayload is the body of every non-2xx response.
type errorPayload struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// errorCode maps the facade's sentinel taxonomy onto stable wire codes.
func errorCode(err error) string {
	switch {
	case errors.Is(err, ringlang.ErrUnknownAlgorithm):
		return "unknown-algorithm"
	case errors.Is(err, ringlang.ErrInvalidWord):
		return "invalid-word"
	case errors.Is(err, ringlang.ErrUnknownLanguage):
		return "unknown-language"
	case errors.Is(err, ringlang.ErrUnknownSchedule):
		return "unknown-schedule"
	case errors.Is(err, ringlang.ErrDeliveryNotTolerated):
		return "delivery-not-tolerated"
	case errors.Is(err, ringlang.ErrCanceled):
		return "canceled"
	case errors.Is(err, ringlang.ErrClosed):
		return "closed"
	default:
		return "run-failed"
	}
}

// statusFor maps the taxonomy onto HTTP statuses. 499 is the de-facto
// "client closed request" status: by the time a cancellation error surfaces
// the client is usually gone, but logs and tests still see a truthful code.
func statusFor(err error) int {
	switch errorCode(err) {
	case "unknown-algorithm", "invalid-word", "unknown-language", "unknown-schedule", "delivery-not-tolerated":
		return http.StatusBadRequest
	case "canceled":
		return 499
	case "closed":
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusFor(err), errorPayload{Error: err.Error(), Code: errorCode(err)})
}

// decodeRunRequest parses a JSON body into a runRequest, rejecting unknown
// fields so typos ("algoritm") fail loudly instead of running defaults. The
// body is capped with http.MaxBytesReader before a byte is decoded, so an
// oversized request is cut off at the limit instead of being buffered whole;
// the caller distinguishes that case through decodeStatus.
func decodeRunRequest(w http.ResponseWriter, r *http.Request, maxBytes int64) (runRequest, error) {
	var req runRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("malformed request body: %w", err)
	}
	return req, nil
}

// decodeStatus maps a decode failure to its response: 413 when the body blew
// the MaxBytesReader cap, 400 otherwise.
func decodeStatus(err error) (int, errorPayload) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge,
			errorPayload{Error: err.Error(), Code: "body-too-large"}
	}
	return http.StatusBadRequest, errorPayload{Error: err.Error(), Code: "bad-request"}
}

// overloaded answers 429 with a Retry-After hint; the caller should back off
// and retry rather than queue on the connection.
func overloaded(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusTooManyRequests,
		errorPayload{Error: "server at max in-flight requests", Code: "overloaded"})
}

// wordLen is the ring size a word asks for — letters are runes, one
// processor each, exactly as ringlang.WordFromString builds the ring.
func wordLen(word string) int {
	return utf8.RuneCountInString(word)
}

// wordTooLarge renders the per-word length-cap failure.
func (s *Server) wordTooLarge(index, letters int) wordResult {
	return wordResult{
		Index: index,
		Error: fmt.Sprintf("word of %d letters exceeds the %d-letter limit", letters, s.cfg.MaxWordLetters),
		Code:  "word-too-large",
	}
}

// errOverloaded marks engine work rejected by admission control; the
// handlers turn it into the 429 response.
var errOverloaded = errors.New("server: at max in-flight requests")

// job is one engine run of rn on word, on the shared pool.
func (s *Server) job(rn *runner, word lang.Word) exec.Job {
	return exec.Job{Rec: rn.rec, Word: word, Engine: rn.engine, Prefix: s.prefix}
}

// handleRecognize serves POST /v1/recognize: one word through the memo
// cache's singleflight, so concurrent identical requests share one engine
// run. A pure cache hit is served before admission control — it costs a map
// lookup, no engine work, so a saturated server keeps answering its warmed
// working set.
func (s *Server) handleRecognize(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRunRequest(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		status, payload := decodeStatus(err)
		writeJSON(w, status, payload)
		return
	}
	if n := wordLen(req.Word); n > s.cfg.MaxWordLetters {
		res := s.wordTooLarge(0, n)
		writeJSON(w, http.StatusRequestEntityTooLarge, errorPayload{Error: res.Error, Code: res.Code})
		return
	}
	if s.isClosed() {
		// The cache fast path below must not outlive Close: a closed server
		// answers 503 uniformly, warm keys included.
		writeError(w, ringlang.ErrClosed)
		return
	}
	k := keyFor(req.Algorithm, req.Language, req.Schedule, req.Seed)
	if s.cache != nil {
		// Peek, not Get: on absence the singleflight Do below records the
		// authoritative miss, keeping misses == engine runs.
		if hit, ok := s.cache.Peek(k.memoKey(req.Word)); ok {
			writeJSON(w, http.StatusOK, hit.served(req.Word, true))
			return
		}
	}
	rn, err := s.runner(k)
	if err != nil {
		writeError(w, err)
		return
	}
	payload, cached, err := s.recognizeWord(r.Context(), rn, k, req.Word)
	if errors.Is(err, errOverloaded) {
		overloaded(w)
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, payload.served(req.Word, cached))
}

// recognizeWord is the cached single-word path behind /v1/recognize: one
// job on the shared pool. With the cache disabled it is a plain admitted
// run. Admission happens inside the singleflight compute, so only the caller
// that actually runs the engine holds an in-flight slot — waiters sharing
// the run block on the call, not on the semaphore, and a herd on one cold
// key costs one slot, not MaxInFlight. A waiter that shared a computation
// canceled by the computing request's disconnect retries once with its own
// (live) context, so one client's disconnect does not fail its herd.
func (s *Server) recognizeWord(ctx context.Context, rn *runner, k runKey, word string) (reportPayload, bool, error) {
	run := func() (reportPayload, error) {
		release, err := s.admit()
		if err != nil {
			return reportPayload{}, err
		}
		defer release()
		w := lang.WordFromString(word)
		var out ranWord
		s.pool.RunEach(ctx, []exec.Job{s.job(rn, w)}, func(_ int, res exec.Result) {
			out = rn.ran(w, res)
		})
		return out.payload, out.err
	}
	if s.cache == nil {
		payload, err := run()
		return payload, false, err
	}
	key := k.memoKey(word)
	for attempt := 0; ; attempt++ {
		payload, cached, err := s.cache.Do(key, run)
		if err != nil && cached && attempt == 0 &&
			errors.Is(err, ringlang.ErrCanceled) && ctx.Err() == nil {
			continue
		}
		return payload, cached, err
	}
}

// runPrep is the validated, partitioned, admitted state a batch or stream
// request shares: the resolved runner, the words already answerable without
// an engine (cache hits and per-word rejections), the deduplicated misses to
// run, and the indexes of in-request repeats riding each miss's single run.
type runPrep struct {
	key     runKey
	rn      *runner
	done    []wordResult  // pre-completed: cache hits + rejected words
	missIdx []int         // original index of each miss
	jobs    []exec.Job    // one per miss, in missIdx order, deduplicated
	dups    map[int][]int // miss position → original indexes of repeats
	// release frees the admission taken for jobs; nil when there are none.
	release func()
}

// duplicateResult re-indexes a primary result for a word repeated within one
// request: the repeat shares the primary's single engine run.
func duplicateResult(primary wordResult, index int) wordResult {
	dup := primary
	dup.Index = index
	return dup
}

// finish converts the outcome of miss j into its wire form, storing a
// successful payload in the cache.
func (s *Server) finish(p *runPrep, j int, out ranWord, word string) wordResult {
	i := p.missIdx[j]
	if out.err != nil {
		return wordResult{Index: i, Error: out.err.Error(), Code: errorCode(out.err)}
	}
	if s.cache != nil {
		s.cache.Put(p.key.memoKey(word), out.payload)
	}
	return wordResult{Index: i, Report: out.payload.served(word, false)}
}

// prepareWords is the shared preamble of batch and stream: validate the word
// list, resolve the runner, partition the words into served-from-cache /
// rejected / to-run (deduplicating repeats within the request, so N copies
// of one cold word cost one engine run), and take an admission slot — but
// only when there is engine work to admit, so an all-warm request is served
// even by a saturated server. On failure the response has been written and
// ok is false. When p.jobs is non-empty the caller must call p.release once
// the pool has run them.
func (s *Server) prepareWords(w http.ResponseWriter, req runRequest, kind string) (p *runPrep, ok bool) {
	if len(req.Words) == 0 {
		writeJSON(w, http.StatusBadRequest, errorPayload{Error: kind + " request has no words", Code: "bad-request"})
		return nil, false
	}
	if len(req.Words) > s.cfg.MaxBatchWords {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorPayload{
			Error: fmt.Sprintf("%s of %d words exceeds the %d-word limit", kind, len(req.Words), s.cfg.MaxBatchWords),
			Code:  "batch-too-large",
		})
		return nil, false
	}
	if s.isClosed() {
		writeError(w, ringlang.ErrClosed)
		return nil, false
	}
	k := keyFor(req.Algorithm, req.Language, req.Schedule, req.Seed)
	rn, err := s.runner(k)
	if err != nil {
		writeError(w, err)
		return nil, false
	}
	p = &runPrep{key: k, rn: rn, dups: make(map[int][]int)}
	firstMiss := make(map[string]int)
	for i, word := range req.Words {
		if n := wordLen(word); n > s.cfg.MaxWordLetters {
			p.done = append(p.done, s.wordTooLarge(i, n))
			continue
		}
		// Repeats of a word already known cold skip the cache lookup too,
		// keeping the miss counters equal to unique cold words.
		if j, seen := firstMiss[word]; seen {
			p.dups[j] = append(p.dups[j], i)
			continue
		}
		if s.cache != nil {
			if hit, ok := s.cache.Get(k.memoKey(word)); ok {
				p.done = append(p.done, wordResult{Index: i, Report: hit.served(word, true)})
				continue
			}
		}
		firstMiss[word] = len(p.jobs)
		p.missIdx = append(p.missIdx, i)
		p.jobs = append(p.jobs, s.job(rn, lang.WordFromString(word)))
	}
	if len(p.jobs) > 0 {
		release, err := s.admit()
		if errors.Is(err, errOverloaded) {
			overloaded(w)
			return nil, false
		}
		if err != nil {
			writeError(w, err)
			return nil, false
		}
		p.release = release
	}
	return p, true
}

// handleBatch serves POST /v1/batch: per-word results in word order — a bad
// word fails alone, a disconnect mid-batch keeps the completed words. Cache
// hits are answered without engine runs; only the misses go to the pool.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRunRequest(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		status, payload := decodeStatus(err)
		writeJSON(w, status, payload)
		return
	}
	p, ok := s.prepareWords(w, req, "batch")
	if !ok {
		return
	}
	results := make([]wordResult, len(req.Words))
	for _, res := range p.done {
		results[res.Index] = res
	}
	if len(p.jobs) > 0 {
		ran := make([]ranWord, len(p.jobs))
		s.pool.RunEach(r.Context(), p.jobs, func(j int, res exec.Result) {
			ran[j] = p.rn.ran(p.jobs[j].Word, res)
		})
		p.release()
		for j, out := range ran {
			primary := s.finish(p, j, out, req.Words[p.missIdx[j]])
			results[primary.Index] = primary
			for _, i := range p.dups[j] {
				results[i] = duplicateResult(primary, i)
			}
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Results []wordResult `json:"results"`
	}{Results: results})
}

// streamRequest parses the query parameters of GET /v1/stream: the run
// fields of runRequest, with words given either as repeated word=… params or
// one comma-separated words=… param.
func streamRequest(r *http.Request) (runRequest, error) {
	q := r.URL.Query()
	req := runRequest{
		Algorithm: q.Get("algorithm"),
		Language:  q.Get("language"),
		Schedule:  q.Get("schedule"),
	}
	if raw := q.Get("seed"); raw != "" {
		seed, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return req, fmt.Errorf("malformed seed %q: %w", raw, err)
		}
		req.Seed = seed
	}
	req.Words = append(req.Words, q["word"]...)
	if raw := q.Get("words"); raw != "" {
		req.Words = append(req.Words, strings.Split(raw, ",")...)
	}
	return req, nil
}

// handleStream serves GET /v1/stream: one result line per word in completion
// order, NDJSON by default or SSE under Accept: text/event-stream, flushed
// as workers finish. Cache hits stream first (they are already complete);
// misses follow as the pool finishes them. A dropped connection cancels the
// remaining work through the request context.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	req, err := streamRequest(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorPayload{Error: err.Error(), Code: "bad-request"})
		return
	}
	p, ok := s.prepareWords(w, req, "stream")
	if !ok {
		return
	}

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	var terminalErr error
	emit := func(res wordResult) {
		if res.Error != "" && terminalErr == nil && res.Code == "canceled" {
			terminalErr = fmt.Errorf("stream word %d: %w: %s", res.Index, ringlang.ErrCanceled, res.Error)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return
		}
		if sse {
			fmt.Fprintf(w, "data: %s\n\n", line)
		} else {
			fmt.Fprintf(w, "%s\n", line)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Pre-completed words (cache hits, rejections) flush first — they are
	// already done — then misses as the workers finish them.
	for _, res := range p.done {
		emit(res)
	}
	if len(p.jobs) > 0 {
		// Workers hand results to a buffer sized to the misses, so they never
		// wait on this connection: a slow reader holds its handler, not a
		// shared worker, and the admission is released once the pool is done.
		type ran struct {
			j   int
			out ranWord
		}
		results := make(chan ran, len(p.jobs))
		go func() {
			defer close(results)
			defer p.release()
			s.pool.RunEach(r.Context(), p.jobs, func(j int, res exec.Result) {
				results <- ran{j, p.rn.ran(p.jobs[j].Word, res)}
			})
		}()
		for d := range results {
			primary := s.finish(p, d.j, d.out, req.Words[p.missIdx[d.j]])
			emit(primary)
			for _, i := range p.dups[d.j] {
				emit(duplicateResult(primary, i))
			}
		}
	}
	if s.streamDone != nil {
		s.streamDone(terminalErr)
	}
}

// handleCatalog serves GET /v1/catalog: the same algorithm/language/schedule
// data `ringbench -list` prints, from the same source
// (ringlang.CurrentCatalog), so the HTTP API can never drift from the CLI.
func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	catalog := ringlang.CurrentCatalog()
	writeJSON(w, http.StatusOK, struct {
		Algorithms []string `json:"algorithms"`
		Languages  []string `json:"languages"`
		Schedules  []string `json:"schedules"`
	}{Algorithms: catalog.Algorithms, Languages: catalog.Languages, Schedules: catalog.Schedules})
}

// handleHealthz serves GET /healthz: liveness plus the cache and admission
// counters a load balancer or operator wants in one probe.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.isDraining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	st := s.CacheStats()
	pst := s.PrefixStats()
	writeJSON(w, code, struct {
		Status    string  `json:"status"`
		InFlight  int     `json:"inflight"`
		Hits      uint64  `json:"cacheHits"`
		Misses    uint64  `json:"cacheMisses"`
		Evictions uint64  `json:"cacheEvictions"`
		Entries   int     `json:"cacheEntries"`
		HitRatio  float64 `json:"cacheHitRatio"`

		PrefixHits        uint64  `json:"prefixHits"`
		PrefixPartialHits uint64  `json:"prefixPartialHits"`
		PrefixMisses      uint64  `json:"prefixMisses"`
		PrefixEvictions   uint64  `json:"prefixEvictions"`
		PrefixEntries     int     `json:"prefixEntries"`
		PrefixBytes       int64   `json:"prefixBytes"`
		PrefixHitRatio    float64 `json:"prefixHitRatio"`
	}{
		Status: status, InFlight: s.inflight(),
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Entries: st.Entries, HitRatio: st.HitRatio(),
		PrefixHits: pst.Hits, PrefixPartialHits: pst.PartialHits, PrefixMisses: pst.Misses,
		PrefixEvictions: pst.Evictions, PrefixEntries: pst.Entries, PrefixBytes: pst.Bytes,
		PrefixHitRatio: pst.HitRatio(),
	})
}

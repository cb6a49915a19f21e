package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"unicode/utf8"

	"ringlang/internal/core"
	"ringlang/internal/lang"
)

// outcome is one word's answer as the server gave it. ok is false when the
// word failed: a transport error, a refused request (429, 5xx) or a per-word
// error.
type outcome struct {
	ok         bool
	why        string // failure or mismatch description
	verdict    string
	member     bool
	bits       int
	messages   int
	processors int
	cached     bool
}

type reportJSON struct {
	Verdict    string `json:"verdict"`
	Member     bool   `json:"member"`
	Messages   int    `json:"messages"`
	Bits       int    `json:"bits"`
	Processors int    `json:"processors"`
	Cached     bool   `json:"cached"`
}

func (r reportJSON) outcome() outcome {
	return outcome{ok: true, verdict: r.Verdict, member: r.Member, bits: r.Bits,
		messages: r.Messages, processors: r.Processors, cached: r.Cached}
}

// parseAnswers turns one response into per-word outcomes, in word order.
func parseAnswers(req *request, status int, body []byte, err error) []outcome {
	out := make([]outcome, len(req.words))
	fail := func(why string) []outcome {
		for i := range out {
			out[i] = outcome{why: why}
		}
		return out
	}
	switch {
	case err != nil:
		return fail("transport: " + err.Error())
	case status != http.StatusOK:
		return fail(fmt.Sprintf("status %d: %.200s", status, body))
	}
	if req.path == recognizePath {
		var r reportJSON
		if err := json.Unmarshal(body, &r); err != nil {
			return fail("decode response: " + err.Error())
		}
		out[0] = r.outcome()
		return out
	}
	var b struct {
		Results []struct {
			Index  int         `json:"index"`
			Report *reportJSON `json:"report"`
			Error  string      `json:"error"`
			Code   string      `json:"code"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return fail("decode response: " + err.Error())
	}
	if len(b.Results) != len(out) {
		return fail(fmt.Sprintf("%d results for %d words", len(b.Results), len(out)))
	}
	for i, r := range b.Results {
		switch {
		case r.Index != i:
			out[i] = outcome{why: fmt.Sprintf("result %d has index %d", i, r.Index)}
		case r.Report == nil:
			out[i] = outcome{why: fmt.Sprintf("word error %s: %s", r.Code, r.Error)}
		default:
			out[i] = r.Report.outcome()
		}
	}
	return out
}

// answered is one request of a run with the server's answers.
type answered struct {
	req      request
	outcomes []outcome
}

// reference is what an answer must say: the language's own membership and
// the bits and messages of a cold sequential core.Run on the same word, with
// no memo, no prefix cache and no pool.
type reference struct {
	member   bool
	bits     int
	messages int
}

type wordKey struct{ algo, word string }

// references keeps every reference a run computed, so a word checked twice
// (in each set-up's warm-up, or in warm-up and timed phase) runs once.
type references struct {
	mu    sync.Mutex
	known map[wordKey]referenceResult
}

type referenceResult struct {
	ref reference
	err error
}

func newReferences() *references {
	return &references{known: make(map[wordKey]referenceResult)}
}

// get returns the reference of one word, computing it with recs on a miss.
func (rs *references) get(recs map[string]core.Recognizer, algo, word string) (reference, error) {
	key := wordKey{algo, word}
	rs.mu.Lock()
	r, found := rs.known[key]
	rs.mu.Unlock()
	if !found {
		r.ref, r.err = referenceFor(recs, algo, word)
		rs.mu.Lock()
		rs.known[key] = r
		rs.mu.Unlock()
	}
	return r.ref, r.err
}

// referenceFor computes the reference of one word.
func referenceFor(recs map[string]core.Recognizer, algo, word string) (reference, error) {
	rec, ok := recs[algo]
	if !ok {
		var err error
		if rec, err = core.NewRecognizerByName(algo, ""); err != nil {
			return reference{}, err
		}
		recs[algo] = rec
	}
	w := lang.WordFromString(word)
	res, err := core.Run(rec, w, core.RunOptions{})
	if err != nil {
		return reference{}, fmt.Errorf("reference run of %s on %d letters: %w", algo, len(w), err)
	}
	return reference{member: rec.Language().Contains(w), bits: res.Stats.Bits, messages: res.Stats.Messages}, nil
}

// mismatch compares one answer with its reference and returns "" when they
// agree.
func mismatch(o outcome, ref reference, word string, mustBeCached bool) string {
	wantVerdict := "reject"
	if ref.member {
		wantVerdict = "accept"
	}
	switch {
	case o.verdict != wantVerdict:
		return fmt.Sprintf("verdict %s, language says %s", o.verdict, wantVerdict)
	case o.member != ref.member:
		return fmt.Sprintf("member %v, language says %v", o.member, ref.member)
	case o.bits != ref.bits || o.messages != ref.messages:
		return fmt.Sprintf("%d bits / %d messages, cold sequential run gives %d / %d", o.bits, o.messages, ref.bits, ref.messages)
	case o.processors != utf8.RuneCountInString(word):
		return fmt.Sprintf("%d processors for %d letters", o.processors, utf8.RuneCountInString(word))
	case mustBeCached && !o.cached:
		return "timed-phase answer not served from the memo cache"
	}
	return ""
}

// tally is the verdict of checking a run's answers.
type tally struct {
	words   int    // words attempted
	failed  int    // failed or refused
	wrong   int    // answered, but not as the references say
	example string // the first problem seen, for the error report
}

func (t *tally) add(o tally) {
	t.words += o.words
	t.failed += o.failed
	t.wrong += o.wrong
	if t.example == "" {
		t.example = o.example
	}
}

// firstFailure returns why the first failed word of items failed, or "" when
// every word was answered.
func firstFailure(items []answered) string {
	for _, it := range items {
		for _, o := range it.outcomes {
			if !o.ok {
				return o.why
			}
		}
	}
	return ""
}

// verify checks every answer, spreading the reference runs over one
// goroutine per CPU. refs keeps the references for later checks.
func verify(refs *references, items []answered, mustBeCached bool) (tally, error) {
	var (
		mu    sync.Mutex
		total tally
		wg    sync.WaitGroup
		next  int
	)
	workers := runtime.NumCPU()
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			recs := make(map[string]core.Recognizer)
			var local tally
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(items) {
					break
				}
				it := &items[i]
				for j, word := range it.req.words {
					o := it.outcomes[j]
					local.words++
					if !o.ok {
						local.failed++
						if local.example == "" {
							local.example = o.why
						}
						continue
					}
					ref, err := refs.get(recs, it.req.algo, word)
					if err != nil {
						errs[g] = err
						return
					}
					if why := mismatch(o, ref, word, mustBeCached); why != "" {
						local.wrong++
						if local.example == "" {
							local.example = fmt.Sprintf("%s word of %d letters: %s", it.req.algo, len(word), why)
						}
					}
				}
			}
			mu.Lock()
			total.add(local)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

package main

import "hash/fnv"

// shares are properties of a workload's generated inputs, each the fraction
// of timed-phase words that have it. They sit beside the memo and prefix hit
// ratios so a change that helps only one property can cite its share.
type shares struct {
	// Repeat: the word was sent before under the same client key.
	Repeat float64 `json:"repeat_share"`
	// PrefixFamily: the word is not a repeat but shares its first 7n/8
	// letters with an earlier word of the same key and length.
	PrefixFamily float64 `json:"prefix_family_share"`
	// Reuse: the word has the same key and length as the previous word
	// sent on that key, so a worker could relabel that word's nodes.
	Reuse float64 `json:"reuse_share"`
}

type clientKey struct {
	algo  string
	sched schedule
}

// measureShares walks the set-up words, then the timed words in send order.
func measureShares(warm []request, timed []answered) shares {
	type prefixKey struct {
		key  clientKey
		n    int
		hash uint64
	}
	seen := make(map[prefixKey]bool)     // whole words
	prefixes := make(map[prefixKey]bool) // 7n/8 prefixes
	lastLen := make(map[clientKey]int)
	var words, repeat, family, reuse int
	visit := func(r *request, counted bool) {
		key := clientKey{r.algo, r.sched}
		for _, w := range r.words {
			whole := prefixKey{key, len(w), hashString(w)}
			prefix := prefixKey{key, len(w), hashString(w[:len(w)*7/8])}
			if counted {
				words++
				switch {
				case seen[whole]:
					repeat++
				case prefixes[prefix]:
					family++
				}
				if lastLen[key] == len(w) {
					reuse++
				}
			}
			seen[whole] = true
			prefixes[prefix] = true
			lastLen[key] = len(w)
		}
	}
	for i := range warm {
		visit(&warm[i], false)
	}
	for i := range timed {
		visit(&timed[i].req, true)
	}
	if words == 0 {
		return shares{}
	}
	total := float64(words)
	return shares{Repeat: float64(repeat) / total, PrefixFamily: float64(family) / total, Reuse: float64(reuse) / total}
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

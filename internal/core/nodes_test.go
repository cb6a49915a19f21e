package core

import (
	"math/rand"
	"reflect"
	"testing"

	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// TestNodeReuseMatchesFreshAcrossCatalog pins the rebuild contract for every
// catalog recognizer: a run on relabelled nodes is bit-identical to a run on
// freshly constructed ones — across consecutive different words of one
// length, and across a ring-size switch (which restocks the slot).
func TestNodeReuseMatchesFreshAcrossCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(0x40de5))
	for _, rec := range allRecognizers(t) {
		if _, ok := rec.(NodeRebuilder); !ok {
			t.Fatalf("%s: every catalog recognizer should support node rebuild", rec.Name())
		}
		reuse := NewNodeReuse()
		for trial := 0; trial < 6; trial++ {
			// Two sizes interleaved, so the slot restocks mid-sequence.
			n := 9 + 8*(trial%2)
			word := lang.RandomWord(rec.Language().Alphabet(), n, rng)
			fresh, err := Run(rec, word, RunOptions{})
			if err != nil {
				t.Fatalf("%s fresh trial %d: %v", rec.Name(), trial, err)
			}
			reused, err := Run(rec, word, RunOptions{Reuse: reuse})
			if err != nil {
				t.Fatalf("%s reused trial %d: %v", rec.Name(), trial, err)
			}
			mustEqualResults(t, rec.Name()+" node reuse", fresh, reused)
		}
	}
}

// TestNodeReuseRejectsForeignNodes pins the misuse errors: rebuilding onto
// another recognizer's ring, or onto the wrong length, must fail loudly
// rather than fold the wrong letters.
func TestNodeReuseRejectsForeignNodes(t *testing.T) {
	maj := NewMajority()
	word := lang.WordFromString("0110")
	nodes, err := maj.NewNodes(word)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := maj.RebuildNodes(lang.WordFromString("01101"), nodes); err == nil {
		t.Error("rebuild across lengths should fail")
	}
	other := NewThreeCounters()
	if _, err := other.RebuildNodes(lang.WordFromString("0011"), nodes); err == nil {
		t.Error("rebuild onto another recognizer's nodes should fail")
	}
	// A second majority instance is a different ring owner too: nodes keep a
	// pointer to the recognizer that built them.
	if _, err := NewMajority().RebuildNodes(word, nodes); err == nil {
		t.Error("rebuild onto another instance's nodes should fail")
	}
}

// TestRebuildWithForeignLetterKeepsRing pins that a failed rebuild changes
// nothing: when the new word has a foreign letter at position i, every one
// of the n nodes keeps its old letter — also those before i, which the
// relabelling would reach first. It covers recognizers that check the word
// against their alphabet and those that declare CheckLetter.
func TestRebuildWithForeignLetterKeepsRing(t *testing.T) {
	const n = 12
	const foreign = lang.Letter(0x10FFFF)
	for _, rec := range allRecognizers(t) {
		rb := rec.(NodeRebuilder)
		a := rec.Language().Alphabet()
		word := make(lang.Word, n)
		for i := range word {
			word[i] = a[0]
		}
		for _, bad := range []int{0, n / 2, n - 1} {
			nodes, err := rec.NewNodes(word)
			if err != nil {
				t.Fatalf("%s: %v", rec.Name(), err)
			}
			next := make(lang.Word, n)
			for i := range next {
				next[i] = a[len(a)-1]
			}
			next[bad] = foreign
			if _, err := rb.RebuildNodes(next, nodes); err == nil {
				t.Fatalf("%s: rebuild onto a word with a foreign letter at %d succeeded", rec.Name(), bad)
			}
			for i, node := range nodes {
				if got := lang.Letter(reflect.ValueOf(node).Elem().FieldByName("letter").Int()); got != word[i] {
					t.Fatalf("%s: failed rebuild (foreign letter at %d) relabelled node %d from %q to %q",
						rec.Name(), bad, i, word[i], got)
				}
			}
		}
	}
}

// TestNodeReuseStaysOnRebuildFloor is the allocation guard for the rebuild
// path (//ring:hotpath in nodes.go and token.go): with a warmed reuse slot
// and a reused run state, a steady-state run must allocate strictly less
// than the fresh-construction floor, because the two O(n) node allocations
// are gone.
func TestNodeReuseStaysOnRebuildFloor(t *testing.T) {
	rec := NewMajority()
	n := 2048
	rng := rand.New(rand.NewSource(7))
	word := lang.RandomWord(rec.Language().Alphabet(), n, rng)

	freshOpts := RunOptions{State: ring.NewRunState()}
	reusedOpts := RunOptions{State: ring.NewRunState(), Reuse: NewNodeReuse()}
	for _, opts := range []RunOptions{freshOpts, reusedOpts} {
		if _, err := Run(rec, word, opts); err != nil {
			t.Fatal(err)
		}
	}
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := Run(rec, word, freshOpts); err != nil {
			t.Fatal(err)
		}
	})
	reused := testing.AllocsPerRun(20, func() {
		if _, err := Run(rec, word, reusedOpts); err != nil {
			t.Fatal(err)
		}
	})
	if reused >= fresh {
		t.Errorf("rebuild path allocates %.1f/op, fresh construction %.1f/op — reuse should be cheaper", reused, fresh)
	}
	if reused > 1 {
		t.Errorf("steady-state rebuild run allocates %.1f/op, want at most 1", reused)
	}
}

// TestNodeReuseAlternatesKeysOnRebuildFloor pins the shape a shared pool
// gives a worker: jobs of two recognizers at two ring sizes interleaved on
// one NodeReuse and one run state. Every kept ring must be relabelled in
// place, so each run stays on the rebuild floor instead of reconstructing
// its nodes at every switch, and every run stays bit-identical to a fresh
// one.
func TestNodeReuseAlternatesKeysOnRebuildFloor(t *testing.T) {
	recs := []Recognizer{NewMajority(), NewBalancedCounter()}
	sizes := []int{1024, 2048}
	rng := rand.New(rand.NewSource(11))
	type input struct {
		rec  Recognizer
		word lang.Word
	}
	var inputs []input
	for _, n := range sizes {
		for _, rec := range recs {
			inputs = append(inputs, input{rec, lang.RandomWord(rec.Language().Alphabet(), n, rng)})
		}
	}
	opts := RunOptions{State: ring.NewRunState(), Reuse: NewNodeReuse()}
	for _, in := range inputs {
		fresh, err := Run(in.rec, in.word, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		reused, err := Run(in.rec, in.word, opts)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, in.rec.Name()+" interleaved node reuse", fresh, reused)
	}
	perRun := testing.AllocsPerRun(10, func() {
		for _, in := range inputs {
			if _, err := Run(in.rec, in.word, opts); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(inputs))
	if perRun > 1 {
		t.Errorf("interleaved rebuild runs allocate %.2f/op, want at most 1 (the single-key floor)", perRun)
	}
}

package core

import (
	"errors"
	"math/rand"
	"testing"

	"ringlang/internal/automata"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// This file is the Theorem 1 differential oracle: regular-one-pass built on
// random automata, checked against the automaton itself. The oracle is
// independent of the ring — DFA.Accepts for the verdict, and n·⌈log₂|Q|⌉
// computed here from the state count for the bits — so a wrong fold, a wrong
// codec width or a schedule that loses or repeats a token shows.

// oracleSchedules are the engines core.Run accepts for a regular-one-pass
// recognizer without RunOptions.AllowFaults, by catalog name, with the
// seeded ones under several seeds. The sharded engine runs at forced worker
// counts, because by name it falls back to the serial loop on short rings.
func oracleSchedules(t testing.TB) []ring.Engine {
	t.Helper()
	var engines []ring.Engine
	for _, name := range []string{"sequential", "round-robin", "adversarial"} {
		engines = append(engines, mustEngine(t, name, 0))
	}
	for _, seed := range []int64{1, 2, 7, 99} {
		for _, name := range []string{"random", "lossy", "crash-restart"} {
			engines = append(engines, mustEngine(t, name, seed))
		}
	}
	return append(engines, ring.NewShardedEngineWorkers(2), ring.NewShardedEngineWorkers(3))
}

func mustEngine(t testing.TB, name string, seed int64) ring.Engine {
	t.Helper()
	e, err := ring.NewEngineByName(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestOracleSchedulesCoverTheCatalog keeps oracleSchedules in step with the
// schedule catalog: every catalog schedule is either covered by it or
// refused for the recognizer without AllowFaults.
func TestOracleSchedulesCoverTheCatalog(t *testing.T) {
	covered := map[string]bool{"sequential": true, "random": true, "round-robin": true,
		"adversarial": true, "sharded": true, "lossy": true, "crash-restart": true}
	raw := randomOracleDFA(rand.New(rand.NewSource(1)), 3)
	rec := regularOnePassFor(t, raw)
	for _, name := range ring.ScheduleNames() {
		if covered[name] {
			continue
		}
		_, err := Run(rec, lang.Word(raw.Alphabet[:1]), RunOptions{Engine: mustEngine(t, name, 1)})
		if !errors.Is(err, ErrDeliveryNotTolerated) {
			t.Errorf("schedule %q is neither covered by the oracle nor refused (err %v)", name, err)
		}
	}
}

// randomOracleDFA returns a random complete automaton of numStates states
// over 2 or 3 letters, one of them at or above U+0100, so core.Run's
// ValidWord takes its wide-alphabet path.
func randomOracleDFA(rng *rand.Rand, numStates int) *automata.DFA {
	pool := []rune{'0', '1', 'a', 0x100 + '0', 0x2800, 0x10FFFF}
	letters := []rune{0x100 + rune(rng.Intn(0x10000))}
	for len(letters) < 2+rng.Intn(2) {
		l := pool[rng.Intn(len(pool))]
		if l != letters[0] && (len(letters) < 2 || l != letters[1]) {
			letters = append(letters, l)
		}
	}
	return automata.RandomDFA(numStates, letters, rng)
}

// regularOnePassFor builds regular-one-pass on raw itself, unminimized, so
// the codec width is ⌈log₂|Q_raw|⌉.
func regularOnePassFor(t testing.TB, raw *automata.DFA) *RegularOnePass {
	t.Helper()
	l, err := lang.NewRegular("random-dfa", raw)
	if err != nil {
		t.Fatal(err)
	}
	return NewRegularOnePassWithDFA(l, raw)
}

// ceilLog2 is ⌈log₂ q⌉, counted the slow way.
func ceilLog2(q int) int {
	b := 0
	for 1<<b < q {
		b++
	}
	return b
}

// checkRegularOracle runs rec on word under every oracle schedule and
// compares the outcome with raw: the verdict is raw.Accepts(word), there
// are n messages, and the bits are exactly n·max(1, ⌈log₂|Q_raw|⌉).
func checkRegularOracle(t *testing.T, raw *automata.DFA, rec *RegularOnePass, word lang.Word, engines []ring.Engine) {
	t.Helper()
	want := ring.VerdictReject
	if raw.Accepts([]rune(word)) {
		want = ring.VerdictAccept
	}
	n := len(word)
	wantBits := n * max(1, ceilLog2(raw.NumStates))
	for _, e := range engines {
		res, err := Run(rec, word, RunOptions{Engine: e})
		if err != nil {
			t.Fatalf("%d-state DFA over %q, word %q, %s: %v", raw.NumStates, raw.Alphabet, []rune(word), e.Name(), err)
		}
		if res.Verdict != want || res.Stats.Messages != n || res.Stats.Bits != wantBits {
			t.Fatalf("%d-state DFA over %q, word %q, %s: %v with %d msgs/%d bits, want %v with %d/%d",
				raw.NumStates, raw.Alphabet, []rune(word), e.Name(),
				res.Verdict, res.Stats.Messages, res.Stats.Bits, want, n, wantBits)
		}
	}
}

// TestRegularOnePassMatchesRandomDFAs is the Theorem 1 oracle over random
// automata of 1–12 states and random words of 1–64 letters.
func TestRegularOnePassMatchesRandomDFAs(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7e01))
	engines := oracleSchedules(t)
	for trial := 0; trial < 48; trial++ {
		raw := randomOracleDFA(rng, 1+trial%12)
		rec := regularOnePassFor(t, raw)
		for w := 0; w < 4; w++ {
			word := lang.Word(automata.RandomWordOver(raw.Alphabet, 1+rng.Intn(64), rng))
			checkRegularOracle(t, raw, rec, word, engines)
		}
	}
}

// FuzzRegularOnePassMatchesDFA fuzzes the Theorem 1 oracle: the seed picks
// the automaton and its alphabet, states its size (1–12), and each byte of
// letters one letter of the word (1–64 letters).
func FuzzRegularOnePassMatchesDFA(f *testing.F) {
	f.Add(int64(1), byte(0), []byte{0, 1, 2})
	f.Add(int64(7), byte(4), []byte("0110101101"))
	f.Add(int64(42), byte(11), []byte{255, 3, 9, 9, 0, 1, 7, 7, 7, 200, 13})
	f.Add(int64(-3), byte(7), []byte{5})
	engines := oracleSchedules(f)
	f.Fuzz(func(t *testing.T, seed int64, states byte, letters []byte) {
		if len(letters) == 0 {
			return
		}
		if len(letters) > 64 {
			letters = letters[:64]
		}
		raw := randomOracleDFA(rand.New(rand.NewSource(seed)), 1+int(states)%12)
		word := make(lang.Word, len(letters))
		for i, b := range letters {
			word[i] = raw.Alphabet[int(b)%len(raw.Alphabet)]
		}
		checkRegularOracle(t, raw, regularOnePassFor(t, raw), word, engines)
	})
}

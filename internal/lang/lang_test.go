package lang

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func newRng() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

func TestAlphabetBasics(t *testing.T) {
	a := NewAlphabet('b', 'a', 'a', 'c')
	if a.Size() != 3 {
		t.Fatalf("Size = %d, want 3 (dedup)", a.Size())
	}
	if a.Index('a') != 0 || a.Index('b') != 1 || a.Index('c') != 2 {
		t.Error("alphabet should be sorted")
	}
	if a.Index('z') != -1 || a.Contains('z') {
		t.Error("foreign letter should not be found")
	}
	if err := a.ValidWord(WordFromString("abc")); err != nil {
		t.Errorf("ValidWord: %v", err)
	}
	if err := a.ValidWord(WordFromString("abz")); err == nil {
		t.Error("expected invalid word error")
	}
}

func TestWordBasics(t *testing.T) {
	w := WordFromString("aba")
	if len(w) != 3 || w.String() != "aba" {
		t.Fatal("word round trip failed")
	}
	c := w.Clone()
	c[0] = 'b'
	if w[0] != 'a' {
		t.Error("Clone must be independent")
	}
}

func TestWcWMembership(t *testing.T) {
	l := NewWcW()
	yes := []string{"c", "aca", "bcb", "abcab", "ababcabab"}
	no := []string{"", "a", "ac", "ca", "acb", "abcba", "abcab c", "ccc", "abab", "acacc"}
	for _, w := range yes {
		if !l.Contains(WordFromString(w)) {
			t.Errorf("wcw should contain %q", w)
		}
	}
	for _, w := range no {
		if l.Contains(WordFromString(w)) {
			t.Errorf("wcw should not contain %q", w)
		}
	}
}

func TestWcWGenerators(t *testing.T) {
	l := NewWcW()
	rng := newRng()
	for _, n := range []int{1, 3, 5, 21, 101} {
		w, ok := l.GenerateMember(n, rng)
		if !ok || len(w) != n || !l.Contains(w) {
			t.Errorf("GenerateMember(%d) failed: %q", n, w.String())
		}
		nm, ok := l.GenerateNonMember(n, rng)
		if !ok || len(nm) != n || l.Contains(nm) {
			t.Errorf("GenerateNonMember(%d) failed: %q", n, nm.String())
		}
	}
	if _, ok := l.GenerateMember(4, rng); ok {
		t.Error("no member of even length should exist")
	}
	nm, ok := l.GenerateNonMember(4, rng)
	if !ok || l.Contains(nm) {
		t.Error("non-member of even length should exist")
	}
}

func TestAnBnCnMembership(t *testing.T) {
	l := NewAnBnCn()
	yes := []string{"", "012", "001122", "000111222"}
	no := []string{"0", "01", "0112", "021", "00112", "0011222", "111222000", "0011221"}
	for _, w := range yes {
		if !l.Contains(WordFromString(w)) {
			t.Errorf("0^k1^k2^k should contain %q", w)
		}
	}
	for _, w := range no {
		if l.Contains(WordFromString(w)) {
			t.Errorf("0^k1^k2^k should not contain %q", w)
		}
	}
}

func TestAnBnCnGenerators(t *testing.T) {
	l := NewAnBnCn()
	rng := newRng()
	for _, n := range []int{3, 6, 30, 300} {
		w, ok := l.GenerateMember(n, rng)
		if !ok || len(w) != n || !l.Contains(w) {
			t.Errorf("GenerateMember(%d) failed", n)
		}
		nm, ok := l.GenerateNonMember(n, rng)
		if !ok || len(nm) != n || l.Contains(nm) {
			t.Errorf("GenerateNonMember(%d) failed", n)
		}
	}
	if _, ok := l.GenerateMember(4, rng); ok {
		t.Error("no member of length 4")
	}
	if nm, ok := l.GenerateNonMember(4, rng); !ok || l.Contains(nm) || len(nm) != 4 {
		t.Error("non-member of length 4 should exist")
	}
	w, n, err := MemberOrSkip(l, 4, 3, rng)
	if err != nil || n != 6 || !l.Contains(w) {
		t.Errorf("MemberOrSkip(4) = (%q, %d, %v), want length 6 member", w.String(), n, err)
	}
}

func TestLgPeriodAndMembership(t *testing.T) {
	l := NewLg(GrowthN15) // p(n) = floor(n^1.5 / n) = floor(sqrt(n))
	if p := l.Period(16); p != 4 {
		t.Errorf("Period(16) = %d, want 4", p)
	}
	if p := l.Period(100); p != 10 {
		t.Errorf("Period(100) = %d, want 10", p)
	}
	// n=16, p=4: abab abab abab abab is periodic with period 4 (and 2).
	if !l.Contains(WordFromString("abababababababab")) {
		t.Error("period-2 word is also period-4 periodic; should be a member")
	}
	if l.Contains(WordFromString("abababababababbb")) {
		t.Error("corrupted tail should not be a member")
	}
	// Quadratic growth clamps the period at ⌈n/2⌉.
	l2 := NewLg(GrowthN2)
	if p := l2.Period(10); p != 5 {
		t.Errorf("n^2 Period(10) = %d, want 5", p)
	}
	// n log n growth: p(n) = floor(log2 n).
	l3 := NewLg(GrowthNLogN)
	if p := l3.Period(1024); p != 10 {
		t.Errorf("nlogn Period(1024) = %d, want 10", p)
	}
}

func TestLgGenerators(t *testing.T) {
	rng := newRng()
	for _, g := range StandardGrowthFuncs() {
		l := NewLg(g)
		for _, n := range []int{2, 10, 64, 257} {
			w, ok := l.GenerateMember(n, rng)
			if !ok || len(w) != n || !l.Contains(w) {
				t.Errorf("%s GenerateMember(%d) failed", l.Name(), n)
			}
			nm, ok := l.GenerateNonMember(n, rng)
			if !ok || len(nm) != n || l.Contains(nm) {
				t.Errorf("%s GenerateNonMember(%d) failed", l.Name(), n)
			}
		}
	}
}

func TestParityIndexMembership(t *testing.T) {
	l, err := NewParityIndex(2) // alphabet σ0..σ3, modulus 3
	if err != nil {
		t.Fatal(err)
	}
	s := func(indices ...int) Word {
		w := make(Word, len(indices))
		for i, idx := range indices {
			w[i] = l.LetterAt(idx)
		}
		return w
	}
	// |w| = 3 → target = 3 mod 3 = 0 → σ0 must appear an even number of times.
	if !l.Contains(s(1, 2, 3)) {
		t.Error("zero occurrences of σ0 is even; should be member")
	}
	if l.Contains(s(0, 1, 2)) {
		t.Error("one occurrence of σ0 is odd; should not be member")
	}
	if !l.Contains(s(0, 0, 1)) {
		t.Error("two occurrences of σ0 is even; should be member")
	}
	// |w| = 4 → target = 1.
	if l.Contains(s(1, 2, 3, 0)) {
		t.Error("one occurrence of σ1; should not be member")
	}
	if !l.Contains(s(1, 1, 3, 0)) {
		t.Error("two occurrences of σ1; should be member")
	}
	if _, err := NewParityIndex(0); err == nil {
		t.Error("k=0 should be rejected")
	}
	if _, err := NewParityIndex(17); err == nil {
		t.Error("k=17 should be rejected")
	}
}

// TestParityIndexLettersRoundTrip walks the whole k=16 alphabet: every
// letter is a code point a string can carry (the surrogate block
// U+D800–U+DFFF is skipped), so a word of any of them survives Word.String
// and WordFromString, and LetterIndex inverts LetterAt. The alphabets of
// k ≤ 15 keep their contiguous letters from U+2800.
func TestParityIndexLettersRoundTrip(t *testing.T) {
	l, err := NewParityIndex(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<16; i++ {
		r := l.LetterAt(i)
		if got := l.LetterIndex(r); got != i {
			t.Fatalf("LetterIndex(LetterAt(%d) = %U) = %d", i, r, got)
		}
		w := Word{r}
		if back := WordFromString(w.String()); !slices.Equal(back, w) {
			t.Fatalf("letter %d (%U) came back from a string as %U", i, r, []rune(back))
		}
	}
	if err := l.Alphabet().ValidWord(Word{l.LetterAt(0), l.LetterAt(1<<16 - 1)}); err != nil {
		t.Errorf("first and last letters rejected: %v", err)
	}
	for r := Letter(0xD800); r <= 0xDFFF; r++ {
		if idx := l.LetterIndex(r); idx != -1 {
			t.Fatalf("surrogate %U maps to letter %d", r, idx)
		}
	}
	if err := l.Alphabet().ValidWord(Word{0xD800}); err == nil {
		t.Error("the alphabet accepts a surrogate")
	}
	if l.LetterIndex(l.LetterAt(1<<16-1)+1) != -1 || l.LetterIndex(0x27FF) != -1 {
		t.Error("letters just outside the alphabet map to an index")
	}
	for k := 1; k <= 15; k++ {
		lk, err := NewParityIndex(k)
		if err != nil {
			t.Fatal(err)
		}
		last := 1<<k - 1
		if got := lk.LetterAt(last); got != Letter(0x2800+last) {
			t.Errorf("k=%d: last letter %U, want %U", k, got, 0x2800+last)
		}
		if lk.LetterIndex(lk.LetterAt(last)+1) != -1 {
			t.Errorf("k=%d: the letter after the last maps to an index", k)
		}
	}
}

func TestParityIndexGenerators(t *testing.T) {
	rng := newRng()
	for _, k := range []int{1, 2, 4, 6} {
		l, err := NewParityIndex(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 17, 100} {
			w, ok := l.GenerateMember(n, rng)
			if !ok || len(w) != n || !l.Contains(w) {
				t.Errorf("k=%d GenerateMember(%d) failed", k, n)
			}
			nm, ok := l.GenerateNonMember(n, rng)
			if !ok || len(nm) != n || l.Contains(nm) {
				t.Errorf("k=%d GenerateNonMember(%d) failed", k, n)
			}
		}
	}
}

func TestRegularLanguageWrapsDFA(t *testing.T) {
	regs, err := StandardRegularLanguages()
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) < 5 {
		t.Fatalf("expected at least 5 standard regular languages, got %d", len(regs))
	}
	rng := newRng()
	for _, r := range regs {
		for _, n := range []int{5, 16, 33, 128} {
			if w, ok := r.GenerateMember(n, rng); ok {
				if len(w) != n || !r.Contains(w) {
					t.Errorf("%s member generator broken at n=%d", r.Name(), n)
				}
			}
			if w, ok := r.GenerateNonMember(n, rng); ok {
				if len(w) != n || r.Contains(w) {
					t.Errorf("%s non-member generator broken at n=%d", r.Name(), n)
				}
			}
		}
	}
}

func TestRegularGeneratorImpossibleLengths(t *testing.T) {
	// (ab)* has no member of odd length and every odd-length word is a
	// non-member.
	r, err := NewRegularFromRegex("(ab)*", "(ab)*")
	if err != nil {
		t.Fatal(err)
	}
	rng := newRng()
	if _, ok := r.GenerateMember(7, rng); ok {
		t.Error("(ab)* has no member of length 7")
	}
	w, ok := r.GenerateMember(8, rng)
	if !ok || w.String() != "abababab" {
		t.Errorf("(ab)* member of length 8 = %q", w.String())
	}
}

func TestByNameAndCatalog(t *testing.T) {
	names := CatalogNames()
	if len(names) < 10 {
		t.Fatalf("catalog too small: %v", names)
	}
	for _, name := range []string{"wcw", "anbncn", "even-ones", "L_g[n^1.5]"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("no-such-language"); err == nil {
		t.Error("expected error for unknown language")
	}
}

// TestCatalogIsBuiltOnce pins the catalog's build-once table: an alias
// resolves to its listed language, and after the first call ByName of a
// catalog name allocates nothing and CatalogNames allocates only its result.
func TestCatalogIsBuiltOnce(t *testing.T) {
	for alias, name := range map[string]string{"0^k1^k2^k": "anbncn", "0^k1^k": "anbn"} {
		a, errA := ByName(alias)
		l, errL := ByName(name)
		if errA != nil || errL != nil || a != l {
			t.Errorf("ByName(%q) = %v/%v, want the %q language %v/%v", alias, a, errA, name, l, errL)
		}
	}
	for _, name := range []string{"wcw", "0^k1^k", "L_g[n^1.5]", "ends-abb"} {
		if allocs := testing.AllocsPerRun(100, func() { _, _ = ByName(name) }); allocs != 0 {
			t.Errorf("ByName(%q) allocates %.0f times per call, want 0", name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = CatalogNames() }); allocs != 1 {
		t.Errorf("CatalogNames allocates %.0f times per call, want 1 (its result)", allocs)
	}
}

// TestCatalogSharedAcrossGoroutines reads the shared catalog languages from
// several goroutines at once; run it with -race.
func TestCatalogSharedAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for _, name := range CatalogNames() {
				l, err := ByName(name)
				if err != nil {
					t.Errorf("ByName(%q): %v", name, err)
					return
				}
				if w, ok := l.GenerateMember(16, rng); ok && !l.Contains(w) {
					t.Errorf("%s: generated member %q is not a member", name, w.String())
				}
				if err := l.Alphabet().ValidWord(RandomWord(l.Alphabet(), 8, rng)); err != nil {
					t.Errorf("%s: random word off its alphabet: %v", name, err)
				}
			}
			if _, err := StandardRegularLanguages(); err != nil {
				t.Error(err)
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestQuickWcWGeneratorAlwaysValid(t *testing.T) {
	l := NewWcW()
	rng := newRng()
	f := func(raw uint16) bool {
		n := int(raw%400) + 1
		if w, ok := l.GenerateMember(n, rng); ok {
			if !l.Contains(w) || len(w) != n {
				return false
			}
		}
		nm, ok := l.GenerateNonMember(n, rng)
		return ok && !l.Contains(nm) && len(nm) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickLgContainsMatchesBruteForce(t *testing.T) {
	l := NewLg(GrowthN15)
	rng := newRng()
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%60) + 1
		local := rand.New(rand.NewSource(seed))
		_ = rng
		w := RandomWord(l.Alphabet(), n, local)
		p := l.Period(n)
		want := true
		for i := p; i < n; i++ {
			if w[i] != w[i-p] {
				want = false
				break
			}
		}
		return l.Contains(w) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

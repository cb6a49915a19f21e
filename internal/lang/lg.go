package lang

import (
	"fmt"
	"math"
	"math/rand"
)

// GrowthFunc is the g(n) of Section 7 note 3: a function with
// n log n ≤ g(n) ≤ n² that parameterizes the bit-complexity hierarchy.
type GrowthFunc struct {
	// Name is a short identifier such as "n^1.5".
	Name string
	// F evaluates g(n).
	F func(n int) float64
}

// Standard growth functions used by the hierarchy experiment (E5).
var (
	// GrowthNLogN is g(n) = n·log₂(n) (the bottom of the hierarchy).
	GrowthNLogN = GrowthFunc{Name: "n*log n", F: func(n int) float64 {
		if n < 2 {
			return float64(n)
		}
		return float64(n) * math.Log2(float64(n))
	}}
	// GrowthN125 is g(n) = n^1.25.
	GrowthN125 = GrowthFunc{Name: "n^1.25", F: func(n int) float64 { return math.Pow(float64(n), 1.25) }}
	// GrowthN15 is g(n) = n^1.5.
	GrowthN15 = GrowthFunc{Name: "n^1.5", F: func(n int) float64 { return math.Pow(float64(n), 1.5) }}
	// GrowthN175 is g(n) = n^1.75.
	GrowthN175 = GrowthFunc{Name: "n^1.75", F: func(n int) float64 { return math.Pow(float64(n), 1.75) }}
	// GrowthN2 is g(n) = n² (the top of the hierarchy).
	GrowthN2 = GrowthFunc{Name: "n^2", F: func(n int) float64 { return float64(n) * float64(n) }}
)

// Lg is the reproduction's interpretation of the paper's L_g family
// (Section 7 note 3): a word of length n is a member iff it is periodic with
// period p(n) = clamp(⌊g(n)/n⌋, 1, ⌈n/2⌉), i.e. w[i] = w[i-p] for every
// i ≥ p. Recognizing it requires transporting a window of p(n) letters across
// the ring, which costs Θ(p(n)·n) = Θ(g(n)) bits — the same accounting as the
// paper's segment-comparison argument. See DESIGN.md ("Substitutions").
type Lg struct {
	growth   GrowthFunc
	alphabet Alphabet
}

var _ Language = (*Lg)(nil)

// NewLg constructs the L_g language over {a, b} for the given growth
// function.
func NewLg(growth GrowthFunc) *Lg {
	return &Lg{growth: growth, alphabet: NewAlphabet('a', 'b')}
}

// Name implements Language.
//
//ring:coldpath -- label rendering; called at setup and in error reports, never per message
func (l *Lg) Name() string { return fmt.Sprintf("L_g[%s]", l.growth.Name) }

// Alphabet implements Language.
func (l *Lg) Alphabet() Alphabet { return l.alphabet }

// Period returns p(n), the period a member word of length n must have.
func (l *Lg) Period(n int) int {
	if n <= 1 {
		return 1
	}
	p := int(math.Floor(l.growth.F(n) / float64(n)))
	if p < 1 {
		p = 1
	}
	max := (n + 1) / 2
	if p > max {
		p = max
	}
	return p
}

// Contains implements Language.
func (l *Lg) Contains(word Word) bool {
	if err := l.alphabet.ValidWord(word); err != nil {
		return false
	}
	n := len(word)
	if n <= 1 {
		return true
	}
	p := l.Period(n)
	for i := p; i < n; i++ {
		if word[i] != word[i-p] {
			return false
		}
	}
	return true
}

// GenerateMember implements Language: a random block of p(n) letters repeated
// to length n.
func (l *Lg) GenerateMember(n int, rng *rand.Rand) (Word, bool) {
	if n < 0 {
		return nil, false
	}
	if n == 0 {
		return Word{}, true
	}
	p := l.Period(n)
	block := RandomWord(l.alphabet, p, rng)
	w := make(Word, n)
	for i := 0; i < n; i++ {
		w[i] = block[i%p]
	}
	return w, true
}

// GenerateNonMember implements Language: a member with one letter in its last
// period corrupted (non-members exist whenever n ≥ 2).
func (l *Lg) GenerateNonMember(n int, rng *rand.Rand) (Word, bool) {
	if n < 2 {
		return nil, false
	}
	w, _ := l.GenerateMember(n, rng)
	p := l.Period(n)
	// Corrupt a position in the tail so at least one periodicity constraint
	// breaks (any position ≥ p works).
	pos := p + rng.Intn(n-p)
	if w[pos] == 'a' {
		w[pos] = 'b'
	} else {
		w[pos] = 'a'
	}
	return w, true
}

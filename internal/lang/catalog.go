package lang

import (
	"errors"
	"fmt"
	"sync"

	"ringlang/internal/automata"
)

// ErrUnknownLanguage is returned when a language name (or a language argument
// such as a growth-function or parity-index spec) resolves to nothing in the
// catalog. Lookup errors wrap it, so callers classify failures with errors.Is
// instead of string matching.
var ErrUnknownLanguage = errors.New("lang: unknown language")

// catalogRow is one language of the catalog and the names that resolve to
// it: the listed name first, then its aliases.
type catalogRow struct {
	names    []string
	language Language
}

// catalog is the ordered table behind ByName, CatalogNames and
// StandardRegularLanguages, built once on first use: the fixed non-regular
// languages, the L_g family over StandardGrowthFuncs, then the standard
// regular set. Languages hold no per-call state, so every caller shares the
// rows. If a regular language fails to build, the rows before it are kept
// and the error is returned with them.
var catalog = sync.OnceValues(func() ([]catalogRow, error) {
	rows := []catalogRow{
		{[]string{"wcw"}, NewWcW()},
		{[]string{"anbncn", "0^k1^k2^k"}, NewAnBnCn()},
		{[]string{"anbn", "0^k1^k"}, NewAnBn()},
		{[]string{"dyck"}, NewDyck()},
		{[]string{"majority"}, NewMajority()},
		{[]string{"palindrome"}, NewPalindrome()},
		{[]string{"length-is-square"}, NewPerfectSquareLength()},
	}
	for _, g := range StandardGrowthFuncs() {
		l := NewLg(g)
		rows = append(rows, catalogRow{[]string{l.Name()}, l})
	}
	// The standard regular set exercises a different DFA size per language,
	// so the ⌈log |Q|⌉ constant of Theorem 1's algorithm varies.
	for _, def := range []struct {
		name string
		dfa  func() (*automata.DFA, error)
	}{
		{"even-ones", func() (*automata.DFA, error) { return automata.NewParityDFA(), nil }},
		{"ones-div-5", func() (*automata.DFA, error) { return automata.NewModCounterDFA(5) }},
		{"(ab)*", func() (*automata.DFA, error) { return automata.CompileRegexDFA("(ab)*") }},
		{"ends-abb", func() (*automata.DFA, error) { return automata.CompileRegexDFA("(a|b)*abb") }},
		{"contains-abbab", func() (*automata.DFA, error) {
			return automata.NewContainsSubstringDFA([]rune{'a', 'b'}, []rune("abbab"))
		}},
		{"length-div-7", func() (*automata.DFA, error) { return automata.NewLengthModDFA([]rune{'a', 'b'}, 7, 0) }},
	} {
		dfa, err := def.dfa()
		if err != nil {
			return rows, fmt.Errorf("regular language %q: %w", def.name, err)
		}
		r, err := NewRegular(def.name, dfa)
		if err != nil {
			return rows, err
		}
		rows = append(rows, catalogRow{[]string{r.Name()}, r})
	}
	return rows, nil
})

// StandardRegularLanguages returns the fixed set of regular languages used by
// the E1 experiment and the examples, in catalog order. The slice is the
// caller's; the languages are shared.
func StandardRegularLanguages() ([]*Regular, error) {
	rows, err := catalog()
	if err != nil {
		return nil, err
	}
	var out []*Regular
	for _, row := range rows {
		if r, ok := row.language.(*Regular); ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// StandardGrowthFuncs returns the growth functions swept by the hierarchy
// experiment (E5/E6), bottom to top.
func StandardGrowthFuncs() []GrowthFunc {
	return []GrowthFunc{GrowthNLogN, GrowthN125, GrowthN15, GrowthN175, GrowthN2}
}

// ByName looks a language up in the catalog by its listed name or an alias;
// it is used by the cmd tools. The language returned is shared by every
// caller.
func ByName(name string) (Language, error) {
	rows, err := catalog()
	for _, row := range rows {
		for _, n := range row.names {
			if n == name {
				return row.language, nil
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownLanguage, name)
}

// CatalogNames lists every language name resolvable by ByName, aliases
// aside, in catalog order.
func CatalogNames() []string {
	rows, _ := catalog() // a build error keeps the rows before it; ByName reports the error
	names := make([]string, len(rows))
	for i, row := range rows {
		names[i] = row.names[0]
	}
	return names
}

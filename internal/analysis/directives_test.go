package analysis

import (
	"go/ast"
	"slices"
	"testing"
)

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text    string
		names   []string
		reason  string
		wantErr bool
	}{
		{
			text:   "//ringvet:ignore errsentinel -- upstream exposes no sentinel",
			names:  []string{"errsentinel"},
			reason: "upstream exposes no sentinel",
		},
		{
			text:   "//ringvet:ignore allocflow,ctxflow -- shutdown path, never hot",
			names:  []string{"allocflow", "ctxflow"},
			reason: "shutdown path, never hot",
		},
		{text: "//ringvet:ignore errsentinel", wantErr: true},             // no reason
		{text: "//ringvet:ignore errsentinel --", wantErr: true},          // empty reason
		{text: "//ringvet:ignore -- because", wantErr: true},              // no analyzer
		{text: "//ringvet:ignore nosuch -- because", wantErr: true},       // unknown analyzer
		{text: "//ringvet:ignore hotpathalloc -- because", wantErr: true}, // retired: merged into allocflow
	}
	for _, c := range cases {
		names, reason, err := parseIgnore(c.text)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseIgnore(%q): expected error, got names=%v", c.text, names)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseIgnore(%q): %v", c.text, err)
			continue
		}
		if !slices.Equal(names, c.names) || reason != c.reason {
			t.Errorf("parseIgnore(%q) = %v, %q; want %v, %q", c.text, names, reason, c.names, c.reason)
		}
	}
}

func TestParseFuncMarks(t *testing.T) {
	doc := func(lines ...string) *ast.CommentGroup {
		cg := &ast.CommentGroup{}
		for _, l := range lines {
			cg.List = append(cg.List, &ast.Comment{Text: l})
		}
		return cg
	}

	m, err := parseFuncMarks(doc("// push is hot.", "//ring:hotpath guard=TestPushAllocs"))
	if err != nil {
		t.Fatalf("hotpath with guard: %v", err)
	}
	if !m.Hotpath || m.Deterministic || !slices.Equal(m.Guards, []string{"TestPushAllocs"}) {
		t.Fatalf("hotpath with guard: got %+v", m)
	}

	m, err = parseFuncMarks(doc("//ring:hotpath guard=TestA,TestB"))
	if err != nil {
		t.Fatalf("guard list: %v", err)
	}
	if !slices.Equal(m.Guards, []string{"TestA", "TestB"}) {
		t.Fatalf("guard list: got %v", m.Guards)
	}

	m, err = parseFuncMarks(doc("//ring:deterministic"))
	if err != nil || !m.Deterministic || m.Hotpath {
		t.Fatalf("deterministic: got %+v, %v", m, err)
	}

	if _, err := parseFuncMarks(doc("//ring:hotpath gaurd=TestTypo")); err == nil {
		t.Fatal("misspelled attribute should be an error, not a silent no-op")
	}
	if _, err := parseFuncMarks(doc("//ring:deterministic guard=TestX")); err == nil {
		t.Fatal("ring:deterministic takes no attributes")
	}
}

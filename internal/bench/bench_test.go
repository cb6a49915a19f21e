package bench

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"ringlang/internal/core"
	"ringlang/internal/lang"
)

func TestFitLogLogSlope(t *testing.T) {
	linear := []Point{{N: 10, Bits: 100}, {N: 100, Bits: 1000}, {N: 1000, Bits: 10000}}
	if got := FitLogLogSlope(linear); math.Abs(got-1) > 0.01 {
		t.Errorf("linear slope = %f, want 1", got)
	}
	quadratic := []Point{{N: 10, Bits: 300}, {N: 100, Bits: 30000}, {N: 1000, Bits: 3000000}}
	if got := FitLogLogSlope(quadratic); math.Abs(got-2) > 0.01 {
		t.Errorf("quadratic slope = %f, want 2", got)
	}
	if !math.IsNaN(FitLogLogSlope(nil)) {
		t.Error("empty input should give NaN")
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{
		ID:         "T",
		Title:      "demo",
		PaperClaim: "claim",
		Columns:    []string{"a", "bbb"},
		Notes:      []string{"a note"},
	}
	table.AddRow("1", "2")
	table.AddRow("333", "4")
	var buf bytes.Buffer
	if err := table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T: demo ==", "paper: claim", "a note", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureRecognizerChecksVerdicts(t *testing.T) {
	points, err := MeasureRecognizer(core.NewThreeCounters(), []int{9, 30}, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].N != 9 || points[1].N != 30 {
		t.Fatalf("points = %+v", points)
	}
	nonMembers, err := MeasureRecognizer(core.NewThreeCounters(), []int{10}, MeasureOptions{Kind: NonMemberWords})
	if err != nil {
		t.Fatal(err)
	}
	if nonMembers[0].Bits <= 0 {
		t.Error("non-member run should still transmit bits")
	}
}

func TestMeasureOneReturnsWordAndTrace(t *testing.T) {
	p, res, word, err := MeasureOne(core.NewSquareCount(), 16, MeasureOptions{Kind: RandomWords}, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 16 || len(word) != 16 {
		t.Errorf("point/word size mismatch: %d / %d", p.N, len(word))
	}
	if len(res.Trace) == 0 {
		t.Error("expected a recorded trace")
	}
	if len(InputsForTrace(word)) != 16 {
		t.Error("InputsForTrace size mismatch")
	}
}

func TestRegistryCoversAllExperiments(t *testing.T) {
	ids := IDs()
	want := []string{"E1", "E2", "E2b", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E15", "E16", "E17", "A1", "A2"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	if _, err := ByID("E3"); err != nil {
		t.Errorf("ByID(E3): %v", err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// extractColumn pulls an integer column from a table by header name.
func extractColumn(t *testing.T, table *Table, name string) []int {
	t.Helper()
	col := -1
	for i, c := range table.Columns {
		if c == name {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("table %s has no column %q", table.ID, name)
	}
	out := make([]int, 0, len(table.Rows))
	for _, row := range table.Rows {
		v, err := strconv.Atoi(row[col])
		if err != nil {
			t.Fatalf("column %q cell %q is not an integer", name, row[col])
		}
		out = append(out, v)
	}
	return out
}

func TestExperimentE1QuickShape(t *testing.T) {
	table, err := ExperimentE1([]int{32, 128})
	if err != nil {
		t.Fatal(err)
	}
	// bits == ceil(log|Q|) * n for every row.
	bitsCol := extractColumn(t, table, "bits")
	nCol := extractColumn(t, table, "n")
	qBits := extractColumn(t, table, "ceil(log|Q|)")
	for i := range bitsCol {
		if bitsCol[i] != nCol[i]*qBits[i] {
			t.Errorf("row %d: bits %d != n·⌈log|Q|⌉ %d", i, bitsCol[i], nCol[i]*qBits[i])
		}
	}
}

func TestExperimentE7QuickShape(t *testing.T) {
	table, err := ExperimentE7([]int{1, 3, 5}, 32)
	if err != nil {
		t.Fatal(err)
	}
	twoPass := extractColumn(t, table, "two-pass bits")
	twoPassFormula := extractColumn(t, table, "(2k+1)n")
	onePass := extractColumn(t, table, "one-pass bits")
	onePassFormula := extractColumn(t, table, "(k+2^k-1)n")
	for i := range twoPass {
		if twoPass[i] != twoPassFormula[i] {
			t.Errorf("row %d: two-pass bits %d != formula %d", i, twoPass[i], twoPassFormula[i])
		}
		if onePass[i] != onePassFormula[i] {
			t.Errorf("row %d: one-pass bits %d != formula %d", i, onePass[i], onePassFormula[i])
		}
	}
	// For k=5 the two-pass algorithm must win; for k=1 the one-pass wins.
	if table.Rows[0][len(table.Columns)-1] != "one-pass" {
		t.Errorf("k=1 winner = %s, want one-pass", table.Rows[0][len(table.Columns)-1])
	}
	if table.Rows[2][len(table.Columns)-1] != "two-pass" {
		t.Errorf("k=5 winner = %s, want two-pass", table.Rows[2][len(table.Columns)-1])
	}
}

func TestExperimentE6QuickShape(t *testing.T) {
	table, err := ExperimentE6([]int{64, 128})
	if err != nil {
		t.Fatal(err)
	}
	unknown := extractColumn(t, table, "bits (n unknown)")
	known := extractColumn(t, table, "bits (n known)")
	for i := range unknown {
		if known[i] >= unknown[i] {
			t.Errorf("row %d: known-n bits %d should be below unknown-n bits %d", i, known[i], unknown[i])
		}
	}
}

func TestExperimentA1UnaryIsQuadratic(t *testing.T) {
	table, err := ExperimentA1([]int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	// Find the unary rows and check they dwarf the delta rows at n=256.
	var deltaBits, unaryBits int
	for _, row := range table.Rows {
		if row[1] != "256" {
			continue
		}
		switch row[0] {
		case "delta":
			deltaBits, _ = strconv.Atoi(row[2])
		case "unary":
			unaryBits, _ = strconv.Atoi(row[2])
		}
	}
	if deltaBits == 0 || unaryBits == 0 {
		t.Fatal("missing rows in A1 table")
	}
	if unaryBits < 10*deltaBits {
		t.Errorf("unary counters (%d bits) should be far above delta counters (%d bits)", unaryBits, deltaBits)
	}
}

func TestExperimentE2bQuickShape(t *testing.T) {
	table, err := ExperimentE2b([]int{32, 64})
	if err != nil {
		t.Fatal(err)
	}
	// The regular recognizer's distinct-state count must not grow with n;
	// the counting recognizer's must.
	var regular, counting []int
	nCol := extractColumn(t, table, "n")
	distinct := extractColumn(t, table, "distinct info states")
	for i, row := range table.Rows {
		switch row[0] {
		case "regular-one-pass":
			regular = append(regular, distinct[i])
		case "count":
			counting = append(counting, distinct[i])
		}
		_ = nCol
	}
	if len(regular) < 2 || len(counting) < 2 {
		t.Fatal("missing rows in E2b table")
	}
	if regular[len(regular)-1] > 8 {
		t.Errorf("regular recognizer has %d distinct information states; expected a small constant", regular[len(regular)-1])
	}
	if counting[1] <= counting[0] {
		t.Errorf("counting recognizer distinct states should grow with n: %v", counting)
	}
}

func TestWordForSizeErrors(t *testing.T) {
	// (ab)* over sizes where no member exists within the window.
	reg, err := lang.NewRegularFromRegex("(ab)*", "(ab)*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureRecognizer(core.NewRegularOnePass(reg), []int{7}, MeasureOptions{Window: 0}); err == nil {
		// Window 0 normalizes to the default window of 8, which will find a
		// member of size 8, so this must succeed instead.
		t.Log("window normalization found a nearby member (expected)")
	}
	language := lang.NewLengthLanguage("always", func(int) bool { return true })
	if _, err := MeasureRecognizer(core.NewCount(language), []int{5}, MeasureOptions{Kind: NonMemberWords}); err == nil {
		t.Error("expected an error: the 'always' language has no non-members")
	}
}

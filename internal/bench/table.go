package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is one rendered experiment result.
type Table struct {
	// ID is the experiment identifier (E1..E17, A1..A2).
	ID string
	// Title is a one-line description.
	Title string
	// PaperClaim is the asymptotic statement the experiment reproduces.
	PaperClaim string
	// Columns are the column headers.
	Columns []string
	// Rows hold the pre-formatted cells.
	Rows [][]string
	// Notes are free-form remarks appended after the table.
	Notes []string
	// Records are the machine-readable measurements behind the rows, for
	// tables that produce them (see BenchRecord and `ringbench -json`).
	Records []BenchRecord
}

// AddRow appends a row of already formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table in an aligned plain-text format.
func (t *Table) Render(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	if t.PaperClaim != "" {
		fmt.Fprintf(&sb, "paper: %s\n", t.PaperClaim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", note)
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// Point is one measurement of a sweep.
type Point struct {
	// N is the ring size.
	N int
	// X is the sweep parameter when it is not the ring size (e.g. k in E7);
	// zero otherwise.
	X int
	// Bits and Messages are the engine-accounted totals.
	Bits     int
	Messages int
}

// FitLogLogSlope estimates the exponent e such that Bits ≈ c·Nᵉ, by an
// ordinary least-squares fit of log(Bits) against log(N). It needs at least
// two points with distinct N.
func FitLogLogSlope(points []Point) float64 {
	var xs, ys []float64
	for _, p := range points {
		if p.N > 1 && p.Bits > 0 {
			xs = append(xs, math.Log(float64(p.N)))
			ys = append(ys, math.Log(float64(p.Bits)))
		}
	}
	if len(xs) < 2 {
		return math.NaN()
	}
	var sumX, sumY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
	}
	meanX, meanY := sumX/float64(len(xs)), sumY/float64(len(ys))
	var num, den float64
	for i := range xs {
		num += (xs[i] - meanX) * (ys[i] - meanY)
		den += (xs[i] - meanX) * (xs[i] - meanX)
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// formatting helpers shared by the experiment tables.

func fmtInt(v int) string {
	return fmt.Sprintf("%d", v)
}

func fmtFloat(v float64) string {
	return fmt.Sprintf("%.2f", v)
}

func perN(bitsTotal, n int) string {
	return fmtFloat(float64(bitsTotal) / float64(n))
}

func perNLogN(bitsTotal, n int) string {
	if n < 2 {
		return "-"
	}
	return fmtFloat(float64(bitsTotal) / (float64(n) * math.Log2(float64(n))))
}

func perN2(bitsTotal, n int) string {
	return fmt.Sprintf("%.4f", float64(bitsTotal)/(float64(n)*float64(n)))
}

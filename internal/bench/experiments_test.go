package bench_test

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// A tablePin ties one row of a table in EXPERIMENTS.md to the rendered
// table row its measured cells quote.
type tablePin struct {
	section string   // the start of the "## " heading the doc row sits under
	label   string   // the doc row's first cell
	golden  string   // the rendered tables under testdata
	block   []string // where in them the row's block starts (see below)
	row     string   // the rendered row's leading fields
	cols    []int    // the rendered values, counted after the row's label, in the doc's order
}

// The rendered blocks the pins read. A block is found by walking down the
// golden file to the first line that starts with each string in turn.
var (
	table4     = []string{"Table 4"}
	missRatio  = []string{"Table 6", "Cache Miss Ratio"}
	fetchCost  = []string{"Table 6", "Instruction Fetch Cost"}
	table5     = func(m string) []string { return []string{"Table 5", m} }
	branchDist = []string{"Instructions between branches", "SPARC"}
	condBr     = func(m string) []string { return []string{"Dynamic Conditional Branches", m} }
)

const (
	allTables    = "tables.golden"
	scaledTables = "tables_6s.golden"
)

// experimentsPins covers every table row of EXPERIMENTS.md. Table 4's
// values are SIMPLE to DUPS static, then SIMPLE to DUPS dynamic. Table 5's
// are static SIMPLE and its LOOPS, JUMPS and DUPS changes, then the same
// for dynamic. Table 6's are the LOOPS, JUMPS and DUPS columns of each
// cache size in turn.
var experimentsPins = []tablePin{
	{"Table 4", "SPARC static: SIMPLE / LOOPS / JUMPS", allTables, table4, "SPARC average", []int{0, 1, 2}},
	{"Table 4", "SPARC dynamic: SIMPLE / LOOPS / JUMPS", allTables, table4, "SPARC average", []int{4, 5, 6}},
	{"Table 4", "68020 static: SIMPLE / LOOPS / JUMPS", allTables, table4, "68020 average", []int{0, 1, 2}},
	{"Table 4", "68020 dynamic: SIMPLE / LOOPS / JUMPS", allTables, table4, "68020 average", []int{4, 5, 6}},
	{"Table 5", "SPARC static growth: LOOPS / JUMPS", allTables, table5("SPARC"), "average", []int{1, 2}},
	{"Table 5", "SPARC dynamic change: LOOPS / JUMPS", allTables, table5("SPARC"), "average", []int{5, 6}},
	{"Table 5", "68020 static growth: LOOPS / JUMPS", allTables, table5("68020"), "average", []int{1, 2}},
	{"Table 5", "68020 dynamic change: LOOPS / JUMPS", allTables, table5("68020"), "average", []int{5, 6}},
	{"Table 6", "Δ miss ratio 2 / 4 / 8 KB: JUMPS", allTables, missRatio, "SPARC on", []int{4, 7, 10}},
	{"Table 6", "Δ fetch cost 8 KB: LOOPS / JUMPS", allTables, fetchCost, "SPARC on", []int{9, 10}},
	{"Table 6", "Δ fetch cost 8 KB (68020): LOOPS / JUMPS", allTables, fetchCost, "68020 on", []int{9, 10}},
	{"Table 6", "128 B SPARC", scaledTables, fetchCost, "SPARC on", []int{0, 1}},
	{"Table 6", "128 B 68020", scaledTables, fetchCost, "68020 on", []int{0, 1}},
	{"Table 6", "512 B 68020", scaledTables, fetchCost, "68020 on", []int{6, 7}},
	{"Table 6", "1 KB SPARC", scaledTables, fetchCost, "SPARC on", []int{9, 10}},
	{"§5.2", "extra instructions between branches (SPARC, JUMPS)", allTables, branchDist, "average", []int{2}},
	{"§5.2", "executed no-ops removed by JUMPS (SPARC)", allTables, branchDist, "no-ops eliminated by JUMPS:", []int{0}},
	{"DUPS", "SPARC", allTables, condBr("SPARC"), "total", []int{0, 1, 2}},
	{"DUPS", "68020", allTables, condBr("68020"), "total", []int{0, 1, 2}},
	{"DUPS", "x86", allTables, condBr("x86"), "total", []int{0, 1, 2}},
	{"DUPS", "od, SPARC", allTables, table5("SPARC"), "od", []int{0, 2, 3, 6, 7}},
	{"DUPS", "od, 68020", allTables, table5("68020"), "od", []int{0, 2, 3, 6, 7}},
	{"DUPS", "od, x86", allTables, table5("x86"), "od", []int{0, 2, 3, 6, 7}},
	{"DUPS", "bubblesort, x86", allTables, table5("x86"), "bubblesort", []int{0, 2, 3, 6, 7}},
}

// docNumber matches a number as EXPERIMENTS.md prints it: an optional
// sign (the doc's minus is U+2212), thousands separators, decimals.
var docNumber = regexp.MustCompile(`[-+−]?\d+(?:,\d{3})*(?:\.\d+)?`)

// docRow is one body row of a table in EXPERIMENTS.md.
type docRow struct {
	section, label string
	measured       []string // the numbers in its measured cells, in order
}

// experimentsRows reads every table body row of EXPERIMENTS.md. A cell is
// measured unless it is the row's label or sits in a column whose header
// starts with "paper".
func experimentsRows(t *testing.T) []docRow {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []docRow
	var section string
	var measured []bool // per column of the current table; nil between tables
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			section = strings.TrimPrefix(line, "## ")
		}
		if !strings.HasPrefix(line, "|") {
			measured = nil
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		switch {
		case measured == nil:
			measured = make([]bool, len(cells))
			for i, c := range cells {
				measured[i] = i > 0 && !strings.HasPrefix(strings.TrimSpace(c), "paper")
			}
		case strings.HasPrefix(line, "|---"):
		default:
			r := docRow{section: section, label: strings.TrimSpace(cells[0])}
			for i, c := range cells {
				if i < len(measured) && measured[i] {
					r.measured = append(r.measured, docNumber.FindAllString(c, -1)...)
				}
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// renderedRow returns the values of the first row named row below block
// in the rendered tables text, stopping at the blank line that ends the
// block.
func renderedRow(text string, block []string, row string) []string {
	lines := strings.Split(text, "\n")
	i := 0
	for _, prefix := range block {
		for i < len(lines) && !strings.HasPrefix(lines[i], prefix) {
			i++
		}
	}
	label := strings.Fields(row)
	for ; i < len(lines) && lines[i] != ""; i++ {
		f := strings.Fields(lines[i])
		if len(f) > len(label) && strings.Join(f[:len(label)], " ") == row {
			return f[len(label):]
		}
	}
	return nil
}

// roundsTo reports whether the doc's number is the rendered value rounded
// to the decimals the doc prints.
func roundsTo(doc string, rendered float64) bool {
	s := strings.NewReplacer("−", "-", ",", "").Replace(doc)
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return false
	}
	decimals := 0
	if i := strings.IndexByte(s, '.'); i >= 0 {
		decimals = len(s) - i - 1
	}
	return math.Abs(rendered-want) <= 0.5*math.Pow10(-decimals)+1e-9
}

// TestExperimentsMatchTables checks every number in the measured columns
// of EXPERIMENTS.md's tables against the rendered tables that
// TestTablesGolden pins, so the doc cannot drift from what `tables`
// prints. A table row without a pin fails, and so does a pin whose row
// is gone.
func TestExperimentsMatchTables(t *testing.T) {
	goldens := map[string]string{}
	for _, name := range []string{allTables, scaledTables} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		goldens[name] = string(data)
	}
	used := make([]bool, len(experimentsPins))
	for _, r := range experimentsRows(t) {
		pi := -1
		for i, p := range experimentsPins {
			if p.label == r.label && strings.HasPrefix(r.section, p.section) {
				pi = i
			}
		}
		if pi < 0 {
			t.Errorf("EXPERIMENTS.md row %q (%s) has no pin", r.label, r.section)
			continue
		}
		used[pi] = true
		p := experimentsPins[pi]
		if len(r.measured) != len(p.cols) {
			t.Errorf("EXPERIMENTS.md row %q: %d measured numbers %q, the pin names %d",
				r.label, len(r.measured), r.measured, len(p.cols))
			continue
		}
		vals := renderedRow(goldens[p.golden], p.block, p.row)
		for i, doc := range r.measured {
			if p.cols[i] >= len(vals) {
				t.Errorf("%s: no value %d in row %q under %q", p.golden, p.cols[i], p.row, p.block)
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSuffix(vals[p.cols[i]], "%"), 64)
			if err != nil || !roundsTo(doc, v) {
				t.Errorf("EXPERIMENTS.md row %q prints %s where %s renders %s (row %q under %q)",
					r.label, doc, p.golden, vals[p.cols[i]], p.row, p.block)
			}
		}
	}
	for i, p := range experimentsPins {
		if !used[i] {
			t.Errorf("pin for EXPERIMENTS.md row %q (%s) matches no row", p.label, p.section)
		}
	}
}

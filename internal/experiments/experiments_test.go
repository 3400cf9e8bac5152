package experiments

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The experiment tests assert the shapes each experiment is built to
// show — who wins, what grows, where crossovers fall — not absolute
// numbers.

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tab.ID, row, col)
	}
	return tab.Rows[row][col]
}

func num(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell(t, tab, row, col), "ms")
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) %q not numeric", tab.ID, row, col, s)
	}
	return f
}

func TestE1Shapes(t *testing.T) {
	tab := E1SchemaSizes()
	for r := range tab.Rows {
		input := num(t, tab, r, 1)
		kSize, lSize := num(t, tab, r, 2), num(t, tab, r, 3)
		if kSize > lSize {
			t.Errorf("row %d: K size %v > L size %v", r, kSize, lSize)
		}
		if lSize >= input/10 {
			t.Errorf("row %d: L schema not ≪ input (%v vs %v)", r, lSize, input)
		}
		if num(t, tab, r, 5) > num(t, tab, r, 6) {
			t.Errorf("row %d: K precision exceeds L precision", r)
		}
	}
	// K size stays near-constant across 50x more docs.
	if num(t, tab, 2, 2) > num(t, tab, 0, 2)*1.5 {
		t.Error("K schema size should stay near-constant")
	}
}

func TestE2Shapes(t *testing.T) {
	tab := E2SparkImprecision()
	// With zero drift the two are comparable; with drift the parametric
	// engine must win and Spark's Str columns must track drift count.
	last := len(tab.Rows) - 1
	if num(t, tab, last, 1) < num(t, tab, 1, 1) {
		t.Error("Str columns should grow with drift")
	}
	for r := 1; r < len(tab.Rows); r++ {
		if num(t, tab, r, 3) <= num(t, tab, r, 2) {
			t.Errorf("row %d: parametric precision should beat spark", r)
		}
	}
}

func TestE3Shapes(t *testing.T) {
	tab := E3ParallelSpeedup()
	for r := range tab.Rows {
		if cell(t, tab, r, 3) != "true" {
			t.Errorf("row %d: parallel result differs from sequential", r)
		}
	}
	// 4 workers must beat 1 worker (weak bound: ≥1.2x). The bound is
	// physically unreachable on small CI runners — with fewer than 4
	// schedulable CPUs the workers time-slice — so the assertion (and
	// only it) is gated on real hardware; the identical-result checks
	// above always run. GOMAXPROCS is what actually bounds parallelism
	// (it can sit below NumCPU in cgroup-limited containers).
	if procs := runtime.GOMAXPROCS(0); procs < 4 || runtime.NumCPU() < 4 {
		t.Skipf("GOMAXPROCS = %d, NumCPU = %d: parallel speedup not measurable on this host",
			procs, runtime.NumCPU())
	}
	if num(t, tab, 2, 2) < 1.2 {
		t.Errorf("4-worker speedup = %v, want >= 1.2", num(t, tab, 2, 2))
	}
}

func TestE4Shapes(t *testing.T) {
	tab := E4MongoVsStudio3T()
	first, last := 0, len(tab.Rows)-1
	if num(t, tab, last, 1) > num(t, tab, first, 1)*1.5 {
		t.Error("merged schema should stay near-constant")
	}
	if num(t, tab, last, 2) < num(t, tab, first, 2)*2 {
		t.Error("unmerged schema should keep growing")
	}
}

func TestE5Shapes(t *testing.T) {
	tab := E5SkinferArrayGap()
	skOK, paramOK := num(t, tab, 0, 1), num(t, tab, 1, 1)
	total := num(t, tab, 0, 2)
	if paramOK != total {
		t.Error("parametric schema must validate every doc")
	}
	if skOK >= paramOK {
		t.Error("skinfer must lose documents to its array-merge gap")
	}
	if num(t, tab, 0, 3) >= num(t, tab, 1, 3) {
		t.Error("parametric precision should beat skinfer")
	}
}

func TestE6Shapes(t *testing.T) {
	tab := E6MisonProjection()
	// Low projectivity: clear speedup; advantage shrinks as
	// projectivity grows.
	if num(t, tab, 0, 3) < 1.5 {
		t.Errorf("1-field speedup = %v, want >= 1.5", num(t, tab, 0, 3))
	}
	if num(t, tab, 0, 3) < num(t, tab, len(tab.Rows)-1, 3) {
		t.Error("speedup should shrink as projectivity grows")
	}
	for r := range tab.Rows {
		if num(t, tab, r, 4) < 0.5 {
			t.Errorf("row %d: speculation hit rate %v too low", r, num(t, tab, r, 4))
		}
	}
}

func TestE7Shapes(t *testing.T) {
	tab := E7FadjsSpeculation()
	// The fast path must be at worst ~even with the generic parser on
	// constant shapes (>= 0.9 leaves room for scheduler noise when the
	// whole suite runs in parallel; standalone runs measure 1.5–1.9×).
	if num(t, tab, 0, 3) < 0.9 {
		t.Errorf("constant-shape ratio %v, want >= 0.9", num(t, tab, 0, 3))
	}
	if num(t, tab, 0, 4) > 4 {
		t.Error("constant stream should deopt at most a handful of times")
	}
	// Projection on a constant stream is the headline: clear win.
	if num(t, tab, 1, 3) < 1.3 {
		t.Errorf("projected ratio %v, want >= 1.3", num(t, tab, 1, 3))
	}
	// Churn: graceful degradation — within 3x of generic.
	if num(t, tab, 2, 3) < 0.33 {
		t.Errorf("churn ratio %v: fadjs degraded worse than 3x", num(t, tab, 2, 3))
	}
}

func TestE8Shapes(t *testing.T) {
	tab := E8SkeletonCoverage()
	for r := 1; r < len(tab.Rows); r++ {
		if num(t, tab, r, 1) > num(t, tab, r-1, 1) {
			t.Error("skeleton size must shrink as support rises")
		}
		if num(t, tab, r, 3) > num(t, tab, r-1, 3)+1e-9 {
			t.Error("coverage must shrink as support rises")
		}
	}
	if num(t, tab, 0, 3) < 0.99 {
		t.Error("minimal support should cover ~everything")
	}
}

func TestE9Shapes(t *testing.T) {
	tab := E9ValidatorThroughput()
	if len(tab.Rows) != 3 {
		t.Fatal("expected three validators")
	}
	for r := range tab.Rows {
		if num(t, tab, r, 1) < 1e4 {
			t.Errorf("row %d: %v docs/s below laptop-scale floor", r, num(t, tab, r, 1))
		}
		// Every validator accepts the (generator-valid) corpus fully.
		if num(t, tab, r, 2) != num(t, tab, r, 3) {
			t.Errorf("row %d: %s rejected valid docs", r, cell(t, tab, r, 0))
		}
	}
}

func TestE10Shapes(t *testing.T) {
	tab := E10SchemaTranslation()
	// Row 1 holds size ratios: both binary formats smaller than JSON.
	if num(t, tab, 1, 2) >= 1.0 || num(t, tab, 1, 3) >= 1.0 {
		t.Errorf("binary formats should be smaller: row=%v col=%v",
			num(t, tab, 1, 2), num(t, tab, 1, 3))
	}
	// Row 3: column scan speedup over JSON re-parse.
	if num(t, tab, 3, 3) < 5 {
		t.Errorf("columnar scan speedup = %v, want >= 5", num(t, tab, 3, 3))
	}
}

func TestE11Shapes(t *testing.T) {
	tab := E11Normalization()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want root + lines", len(tab.Rows))
	}
	for r := range tab.Rows {
		if num(t, tab, r, 2) >= num(t, tab, r, 1) {
			t.Errorf("row %d: normalization should shrink cells", r)
		}
		if num(t, tab, r, 3) < 1 {
			t.Errorf("row %d: expected at least one dimension", r)
		}
	}
}

func TestE12Shapes(t *testing.T) {
	tab := E12CountingTypes()
	for r := range tab.Rows {
		if num(t, tab, r, 3) > 2.2 {
			t.Errorf("row %d: counting overhead %v too large", r, num(t, tab, r, 3))
		}
		if cell(t, tab, r, 4) != "true" {
			t.Errorf("row %d: counts not exact", r)
		}
	}
}

func TestE13Shapes(t *testing.T) {
	tab := E13SchemaProfiling()
	for r := range tab.Rows {
		if num(t, tab, r, 4) < 0.9 {
			t.Errorf("row %d: purity %v below 0.9", r, num(t, tab, r, 4))
		}
		if num(t, tab, r, 2) > 4 {
			t.Errorf("row %d: depth exceeds budget", r)
		}
	}
}

func TestE14Shapes(t *testing.T) {
	tab := E14Codegen()
	for r := range tab.Rows {
		if cell(t, tab, r, 3) != "true" || cell(t, tab, r, 4) != "true" {
			t.Errorf("row %d: generated code not well-formed", r)
		}
		if num(t, tab, r, 1) < 5 || num(t, tab, r, 2) < 5 {
			t.Errorf("row %d: generated code suspiciously short", r)
		}
	}
}

func TestTableString(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Claim: "c",
		Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	out := tab.String()
	for _, want := range []string{"== X: t ==", "claim: c", "a", "bb"} {
		if !strings.Contains(out, want) {
			t.Errorf("table rendering missing %q:\n%s", want, out)
		}
	}
}

func TestE15Shapes(t *testing.T) {
	tab := E15JaqlOutputSchema()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for r := range tab.Rows {
		if cell(t, tab, r, 4) != "true" {
			t.Errorf("row %d: static output type unsound", r)
		}
		if num(t, tab, r, 3) < 1 {
			t.Errorf("row %d: query produced nothing", r)
		}
	}
}

func TestE16Shapes(t *testing.T) {
	tab := E16SchemaDiscovery()
	for r := range tab.Rows {
		if num(t, tab, r, 2) < 1 {
			t.Errorf("row %d: no flavors", r)
		}
		if num(t, tab, r, 5) <= 0 {
			t.Errorf("row %d: empty index suggestion", r)
		}
	}
	// orders: the unique, always-present key must win.
	if cell(t, tab, 0, 4) != "order_id" {
		t.Errorf("orders top index = %s, want order_id", cell(t, tab, 0, 4))
	}
}

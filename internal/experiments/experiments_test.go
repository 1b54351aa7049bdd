package experiments

import (
	"strings"
	"testing"
)

func quickSuite() Suite {
	return Suite{Quick: true, Seed: 7, Sizes: []int{40, 56}}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	tables := All(quickSuite())
	if len(tables) != len(IDs()) {
		t.Fatalf("%d tables, want %d", len(tables), len(IDs()))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: no rows", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Fatalf("%s: row width %d != header %d", tb.ID, len(row), len(tb.Header))
			}
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("zzz", quickSuite()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestT4ListsAlwaysCorrect(t *testing.T) {
	tb := T4KNearest(quickSuite().withDefaults())
	col := -1
	for i, h := range tb.Header {
		if h == "lists correct" {
			col = i
		}
	}
	if col < 0 {
		t.Fatal("missing correctness column")
	}
	for _, row := range tb.Rows {
		if row[col] != "true" {
			t.Fatalf("incorrect k-nearest lists in row %v", row)
		}
	}
}

func TestT3HopsetsWithinBound(t *testing.T) {
	tb := T3Hopsets(quickSuite().withDefaults())
	for _, row := range tb.Rows {
		if row[4] == "-1" {
			t.Fatalf("hop radius exceeded β: %v", row)
		}
	}
}

func TestRenderFormats(t *testing.T) {
	tb := Table{
		ID: "t0", Title: "demo", Reproduces: "nothing",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note"},
	}
	txt := Render(tb)
	if !strings.Contains(txt, "T0") || !strings.Contains(txt, "note") {
		t.Fatalf("text render missing pieces:\n%s", txt)
	}
	md := RenderMarkdown(tb)
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "> note") {
		t.Fatalf("markdown render missing pieces:\n%s", md)
	}
}

func TestSampleSources(t *testing.T) {
	s := quickSuite()
	got := sampleSources(5, 10, s.rng(1))
	if len(got) != 5 {
		t.Fatalf("want all 5 sources, got %v", got)
	}
	got = sampleSources(100, 10, s.rng(2))
	if len(got) != 10 {
		t.Fatalf("want 10 sources, got %d", len(got))
	}
}

// TestQuickSuiteRendersIdentically renders the quick suite repeatedly: every
// table is a pure function of the suite, so any iteration-order dependence
// (a map ranged over to emit rows) shows up as a difference between renders.
// One render in eight reverses a two-key map, so forty renders catch such a
// dependence with probability above 99%.
func TestQuickSuiteRendersIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	render := func() string {
		var b strings.Builder
		for _, tb := range All(quickSuite()) {
			b.WriteString(Render(tb))
		}
		return b.String()
	}
	want := render()
	for i := 1; i < 40; i++ {
		if got := render(); got != want {
			t.Fatalf("render %d differs from the first:\n%s\nfirst:\n%s", i, got, want)
		}
	}
}

package stats

import (
	"math"
	"strings"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLinearFitExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, r2 := LinearFit(x, y)
	if !almost(a, 1) || !almost(b, 2) || !almost(r2, 1) {
		t.Fatalf("fit a=%v b=%v r2=%v", a, b, r2)
	}
}

func TestLinearFitConstant(t *testing.T) {
	a, b, r2 := LinearFit([]float64{0, 1, 2}, []float64{5, 5, 5})
	if !almost(a, 5) || !almost(b, 0) || !almost(r2, 1) {
		t.Fatalf("constant fit a=%v b=%v r2=%v", a, b, r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if a, _, _ := LinearFit([]float64{1}, []float64{1}); !math.IsNaN(a) {
		t.Fatal("fit of one point not NaN")
	}
	if a, _, _ := LinearFit([]float64{2, 2}, []float64{1, 3}); !math.IsNaN(a) {
		t.Fatal("fit with zero x-variance not NaN")
	}
	if a, _, _ := LinearFit([]float64{1, 2}, []float64{1}); !math.IsNaN(a) {
		t.Fatal("length mismatch not NaN")
	}
}

func TestLinearFitNoisy(t *testing.T) {
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = float64(i)
		y[i] = 2 + 0.5*float64(i) + math.Sin(float64(i)) // bounded noise
	}
	_, b, r2 := LinearFit(x, y)
	if math.Abs(b-0.5) > 0.05 {
		t.Fatalf("slope %v, want ~0.5", b)
	}
	if r2 < 0.98 {
		t.Fatalf("r2 %v too low", r2)
	}
}

func TestLogLog(t *testing.T) {
	if LogLog(2) != 0 || LogLog(1) != 0 || LogLog(0) != 0 {
		t.Fatal("LogLog not clamped at small x")
	}
	if !almost(LogLog(16), 2) { // log2(log2 16) = log2 4 = 2
		t.Fatalf("LogLog(16) = %v", LogLog(16))
	}
	if !almost(LogLog(256), 3) {
		t.Fatalf("LogLog(256) = %v", LogLog(256))
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta-long-name", 12345678.0)
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "### demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "| alpha") || !strings.Contains(out, "beta-long-name") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "1.235e+07") {
		t.Fatalf("large float not in scientific notation:\n%s", out)
	}
	// Alignment: every data line has the same length.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var widths []int
	for _, l := range lines {
		if strings.HasPrefix(l, "|") {
			widths = append(widths, len(l))
		}
	}
	for _, w := range widths {
		if w != widths[0] {
			t.Fatalf("ragged table:\n%s", out)
		}
	}
}

func TestTableFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.23456: "1.235",
		1e-5:    "1.000e-05",
		-2e7:    "-2.000e+07",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if formatFloat(math.NaN()) != "NaN" {
		t.Error("NaN formatting")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", "plain")
	tb.AddRow("has\"quote", 2)
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := "a,b\n\"x,y\",plain\n\"has\"\"quote\",2\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}

func TestTableRowsAccessors(t *testing.T) {
	tb := NewTable("t", "c")
	if tb.NumRows() != 0 {
		t.Fatal("fresh table has rows")
	}
	tb.AddRow(1).AddRow(2)
	if tb.NumRows() != 2 || tb.Rows()[1][0] != "2" {
		t.Fatalf("rows %v", tb.Rows())
	}
}

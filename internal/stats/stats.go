// Package stats provides the small statistical toolkit used by the
// experiment harness: least-squares fits (for verifying growth rates such
// as "rounds grow like log log d") and formatting of aligned text tables
// and CSV.
package stats

import "math"

// LinearFit fits y = a + b·x by least squares and returns (a, b, r²).
// Degenerate inputs (fewer than 2 points, zero x-variance) return NaNs.
func LinearFit(x, y []float64) (a, b, r2 float64) {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		// Perfectly constant y: the fit is exact.
		return a, b, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return a, b, r2
}

// LogLog returns log2(log2(x)) clamped below at 0, the natural abscissa for
// checking O(log log d) growth; defined for x > 1, else 0.
func LogLog(x float64) float64 {
	if x <= 2 {
		return 0
	}
	return math.Log2(math.Log2(x))
}

package stats

import (
	"errors"
	"fmt"
	"math"
)

// Polynomial is a real polynomial stored as coefficients in increasing
// degree order: p(x) = Coeffs[0] + Coeffs[1]*x + ... .
type Polynomial struct {
	Coeffs []float64
}

// Eval evaluates the polynomial at x using Horner's rule.
func (p Polynomial) Eval(x float64) float64 {
	var v float64
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		v = v*x + p.Coeffs[i]
	}
	return v
}

// Degree returns the nominal degree (len(Coeffs)-1).
func (p Polynomial) Degree() int { return len(p.Coeffs) - 1 }

// String renders the polynomial in human-readable form.
func (p Polynomial) String() string {
	s := ""
	for i, c := range p.Coeffs {
		if i == 0 {
			s = fmt.Sprintf("%.6g", c)
			continue
		}
		s += fmt.Sprintf(" %+.6g*x^%d", c, i)
	}
	return s
}

// PolyFit fits a least-squares polynomial of the given degree to the points
// (xs[i], ys[i]), mirroring the degree-5 multinomial regression the paper
// uses to approximate inter-GOP distortion as a function of reference
// distance (Section 4.3.2). It solves the normal equations of the
// Vandermonde system; for the small degrees used here (≤ 8) this is
// numerically adequate after centring x.
func PolyFit(xs, ys []float64, degree int) (Polynomial, error) {
	if len(xs) != len(ys) {
		panic("stats: PolyFit length mismatch")
	}
	if degree < 0 {
		panic("stats: PolyFit negative degree")
	}
	if len(xs) < degree+1 {
		return Polynomial{}, fmt.Errorf("stats: PolyFit needs at least %d points, got %d", degree+1, len(xs))
	}
	n := degree + 1
	// Normal equations: (VᵀV) c = Vᵀy with V_{ij} = x_i^j.
	ata := make([][]float64, n)
	for i := range ata {
		ata[i] = make([]float64, n)
	}
	c := make([]float64, n)
	pow := make([]float64, 2*degree+1)
	for k := range xs {
		x, y := xs[k], ys[k]
		pow[0] = 1
		for j := 1; j < len(pow); j++ {
			pow[j] = pow[j-1] * x
		}
		for i := 0; i < n; i++ {
			c[i] += pow[i] * y
			for j := 0; j < n; j++ {
				ata[i][j] += pow[i+j]
			}
		}
	}
	if err := solveInPlace(ata, c); err != nil {
		return Polynomial{}, err
	}
	return Polynomial{Coeffs: c}, nil
}

// solveInPlace solves a*x = b by Gaussian elimination with partial
// pivoting, overwriting a and leaving x in b.
func solveInPlace(a [][]float64, b []float64) error {
	n := len(b)
	for col := 0; col < n; col++ {
		pivot, pivotAbs := col, math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > pivotAbs {
				pivot, pivotAbs = r, v
			}
		}
		if pivotAbs < 1e-300 {
			return errors.New("stats: PolyFit normal equations are singular")
		}
		a[pivot], a[col] = a[col], a[pivot]
		b[pivot], b[col] = b[col], b[pivot]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			for c := col + 1; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * b[c]
		}
		b[r] = s / a[r][r]
	}
	return nil
}

// RSquared returns the coefficient of determination of the fit p on the
// points (xs, ys). 1 means a perfect fit.
func RSquared(p Polynomial, xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(ys) == 0 {
		panic("stats: RSquared length mismatch")
	}
	mean := Mean(ys)
	var ssRes, ssTot float64
	for i := range xs {
		d := ys[i] - p.Eval(xs[i])
		ssRes += d * d
		t := ys[i] - mean
		ssTot += t * t
	}
	if NearZero(ssTot) {
		if NearZero(ssRes) {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}

// LinearFit is a convenience wrapper fitting y = a + b*x and returning
// (a, b).
func LinearFit(xs, ys []float64) (a, b float64, err error) {
	p, err := PolyFit(xs, ys, 1)
	if err != nil {
		return 0, 0, err
	}
	return p.Coeffs[0], p.Coeffs[1], nil
}

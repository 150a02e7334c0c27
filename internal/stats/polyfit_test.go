package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPolyFitExact(t *testing.T) {
	// p(x) = 2 - 3x + 0.5x^2 sampled exactly must be recovered.
	truth := Polynomial{Coeffs: []float64{2, -3, 0.5}}
	var xs, ys []float64
	for x := -3.0; x <= 3.0; x += 0.5 {
		xs = append(xs, x)
		ys = append(ys, truth.Eval(x))
	}
	p, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth.Coeffs {
		if !ApproxEqual(p.Coeffs[i], truth.Coeffs[i], 1e-8) {
			t.Fatalf("coeff %d = %v want %v", i, p.Coeffs[i], truth.Coeffs[i])
		}
	}
	if r2 := RSquared(p, xs, ys); !ApproxEqual(r2, 1, 1e-12) {
		t.Fatalf("R^2 = %v want 1", r2)
	}
}

func TestPolyFitDegree5(t *testing.T) {
	truth := Polynomial{Coeffs: []float64{1, 0.2, -0.05, 0.3, -0.02, 0.001}}
	var xs, ys []float64
	for x := 0.5; x <= 6; x += 0.25 {
		xs = append(xs, x)
		ys = append(ys, truth.Eval(x))
	}
	p, err := PolyFit(xs, ys, 5)
	if err != nil {
		t.Fatal(err)
	}
	for x := 1.0; x <= 5; x += 0.5 {
		if !ApproxEqual(p.Eval(x), truth.Eval(x), 1e-6) {
			t.Fatalf("p(%v) = %v want %v", x, p.Eval(x), truth.Eval(x))
		}
	}
}

func TestPolyFitTooFewPoints(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, 5); err == nil {
		t.Fatal("expected error for underdetermined fit")
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	a, b, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(a, 1, 1e-10) || !ApproxEqual(b, 2, 1e-10) {
		t.Fatalf("fit = (%v, %v) want (1, 2)", a, b)
	}
}

// Property: a fit of degree d reproduces any polynomial of degree ≤ d
// sampled at d+3 distinct points.
func TestPolyFitRecoversProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		d := 1 + r.Intn(4)
		coeffs := make([]float64, d+1)
		for i := range coeffs {
			coeffs[i] = r.Float64()*4 - 2
		}
		truth := Polynomial{Coeffs: coeffs}
		var xs, ys []float64
		for i := 0; i < d+3; i++ {
			x := float64(i) * 0.7
			xs = append(xs, x)
			ys = append(ys, truth.Eval(x))
		}
		p, err := PolyFit(xs, ys, d)
		if err != nil {
			return false
		}
		for _, x := range xs {
			if math.Abs(p.Eval(x)-truth.Eval(x)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPolynomialEvalHorner(t *testing.T) {
	p := Polynomial{Coeffs: []float64{1, 2, 3}}
	if got := p.Eval(2); got != 1+4+12 {
		t.Fatalf("Eval(2) = %v want 17", got)
	}
	if p.Degree() != 2 {
		t.Fatalf("Degree = %d want 2", p.Degree())
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	x := []float64{8, -11, -3}
	if err := solveInPlace(a, x); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !ApproxEqual(x[i], want[i], 1e-10) {
			t.Fatalf("x[%d] = %v want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	if err := solveInPlace([][]float64{{1, 2}, {2, 4}}, []float64{1, 2}); err == nil {
		t.Fatal("expected a singular-system error")
	}
}

// Property: for random well-conditioned matrices, solving A x = A*x0
// recovers x0.
func TestSolveRecoversProperty(t *testing.T) {
	rng := NewRNG(42)
	f := func(seed uint64) bool {
		r := NewRNG(seed ^ rng.Uint64())
		n := 2 + r.Intn(6)
		a := make([][]float64, n)
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = r.Float64()*10 - 5
		}
		b := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = r.Float64()*2 - 1
			}
			// Diagonal dominance keeps the system well conditioned.
			a[i][i] += float64(n) + 1
			for j, v := range a[i] {
				b[i] += v * x0[j]
			}
		}
		if err := solveInPlace(a, b); err != nil {
			return false
		}
		for i := range x0 {
			if !ApproxEqual(b[i], x0[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

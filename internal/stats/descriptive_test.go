package stats

import (
	"math"
	"testing"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !ApproxEqual(m, 5, 1e-12) {
		t.Fatalf("Mean = %v want 5", m)
	}
	// Sample variance with n-1: sum of squared dev = 32, /7.
	if v := Variance(xs); !ApproxEqual(v, 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v want %v", v, 32.0/7)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty-input conventions violated")
	}
}

func TestMoment(t *testing.T) {
	xs := []float64{1, 2, 3}
	if m := Moment(xs, 2); !ApproxEqual(m, (1.0+4+9)/3, 1e-12) {
		t.Fatalf("second moment = %v", m)
	}
	if m := Moment(xs, 1); !ApproxEqual(m, 2, 1e-12) {
		t.Fatalf("first moment = %v", m)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("Min/Max wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if p := Percentile(xs, 0.5); !ApproxEqual(p, 3, 1e-12) {
		t.Fatalf("median = %v", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 1); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 0.25); !ApproxEqual(p, 2, 1e-12) {
		t.Fatalf("p25 = %v", p)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{10, 12, 9, 11, 10, 12, 9, 11, 10, 10,
		11, 9, 12, 10, 11, 9, 10, 12, 11, 10} // 20 samples like the paper
	s := Summarize(xs)
	if s.N != 20 {
		t.Fatalf("N = %d", s.N)
	}
	if s.CI95 <= 0 {
		t.Fatal("CI95 must be positive for varied samples")
	}
	// Half width = t(19) * sd / sqrt(20)
	want := 2.093 * s.StdDev / math.Sqrt(20)
	if !ApproxEqual(s.CI95, want, 1e-12) {
		t.Fatalf("CI95 = %v want %v", s.CI95, want)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.5, 0.9, -5, 10}
	h := Histogram(xs, 0, 1, 2)
	if h[0] != 3 || h[1] != 3 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGUniformMoments(t *testing.T) {
	r := NewRNG(123)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Float64()
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Fatalf("uniform variance = %v", variance)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(5)
	n := 200000
	rate := 4.0
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	if m := sum / float64(n); math.Abs(m-0.25) > 0.01 {
		t.Fatalf("exp mean = %v want 0.25", m)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(99)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Norm(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-3) > 0.05 || math.Abs(sd-2) > 0.05 {
		t.Fatalf("norm moments = (%v, %v)", mean, sd)
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(17)
	p := 0.3
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	want := (1 - p) / p
	if m := sum / float64(n); math.Abs(m-want) > 0.05 {
		t.Fatalf("geometric mean = %v want %v", m, want)
	}
}

func TestRNGGeometricEdge(t *testing.T) {
	r := NewRNG(1)
	if r.Geometric(1) != 0 {
		t.Fatal("Geometric(1) must be 0")
	}
}

func TestRNGShuffleIsPermutation(t *testing.T) {
	r := NewRNG(2)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

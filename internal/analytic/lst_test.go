package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// With zero variances the Gaussian-variation transforms (Eqs. 17-18) must
// collapse to the constant-time special cases of Eqs. (12) and (14).
func TestLSTConstantSpecialCases(t *testing.T) {
	sp := ServiceParams{
		PI:   0.3,
		EncI: 0.8, EncP: 0.8, // the paper's class-independent q
		EncMeanI: 1.2e-3,
		EncMeanP: 0.5e-3,
		TxMeanI:  2.0e-3,
		TxMeanP:  0.8e-3,
		PS:       1,
	}
	q := 0.8
	for _, s := range []float64{0, 5, 50, 400} {
		// Eq. (12): He(s) = q pI e^{-s uI} + q(1-pI) e^{-s uP} + (1-q).
		wantE := q*sp.PI*math.Exp(-s*sp.EncMeanI) +
			q*(1-sp.PI)*math.Exp(-s*sp.EncMeanP) + (1 - q)
		if !relNear(sp.lstEnc(s), wantE, 1e-12) {
			t.Fatalf("He(%v) = %v want %v", s, sp.lstEnc(s), wantE)
		}
		// Eq. (14): Ht(s) = pI e^{-s uI} + (1-pI) e^{-s uP}.
		wantT := sp.PI*math.Exp(-s*sp.TxMeanI) + (1-sp.PI)*math.Exp(-s*sp.TxMeanP)
		if !relNear(sp.lstTx(s), wantT, 1e-12) {
			t.Fatalf("Ht(%v) = %v want %v", s, sp.lstTx(s), wantT)
		}
		// Eq. (10): the product form.
		if !relNear(sp.LST(s), wantE*wantT, 1e-12) {
			t.Fatalf("H(%v) product form violated", s)
		}
	}
}

// Eq. (7): the backoff transform has the closed form ps(lb+s)/(s+ps*lb),
// equal to the mixture "0 w.p. ps else Exp(ps*lb)".
func TestLSTBackoffClosedForm(t *testing.T) {
	sp := ServiceParams{PI: 0, TxMeanI: 1e-3, TxMeanP: 1e-3, PS: 0.85, LambdaB: 1000}
	for _, s := range []float64{0, 10, 100, 800} {
		want := sp.PS*1 + (1-sp.PS)*(sp.PS*sp.LambdaB)/(sp.PS*sp.LambdaB+s)
		if !relNear(sp.lstBackoff(s), want, 1e-12) {
			t.Fatalf("Hb(%v) = %v want %v", s, sp.lstBackoff(s), want)
		}
	}
	// The transform is finite for s > -ps*lambdaB, its pole; on the right
	// half-line used here it stays in (0, 1].
	if v := sp.lstBackoff(5000); v <= 0 || v > 1 {
		t.Fatalf("Hb out of range: %v", v)
	}
}

// gaussLST is the LST of the zero-truncated Gaussian: 1 at s = 0,
// decreasing, in (0, 1] far past 2mu/sigma^2 where the paper's untruncated
// form exceeds 1, and equal to the transform of the truncated density by
// quadrature, on both sides of its asymptotic-series switch (t = 26, at
// s ~ 1.9e5 for the first law).
func TestGaussLSTTruncated(t *testing.T) {
	for _, law := range [][2]float64{{0.4e-3, 0.2e-3}, {1e-3, 0.1e-3}, {0.3e-3, 0.3e-3}} {
		mu, sigma := law[0], law[1]
		if v := gaussLST(0, mu, sigma); !near(v, 1, 1e-15) {
			t.Fatalf("mu=%v sigma=%v: LST(0) = %v", mu, sigma, v)
		}
		edge := 2 * mu / (sigma * sigma)
		prev := 1.0
		for s := edge / 64; s <= 1e3*edge; s *= 1.25 {
			v := gaussLST(s, mu, sigma)
			if !(v > 0 && v <= 1 && v < prev) {
				t.Fatalf("mu=%v sigma=%v: LST(%g) = %v after %v", mu, sigma, s, v, prev)
			}
			prev = v
		}
		for _, s := range []float64{edge / 4, 4 * edge, 1.8e5, 2e5, 5e5} {
			if v, want := gaussLST(s, mu, sigma), truncGaussLSTQuad(s, mu, sigma); !relNear(v, want, 1e-8) {
				t.Fatalf("mu=%v sigma=%v: LST(%g) = %v, quadrature %v", mu, sigma, s, v, want)
			}
		}
	}
	if v := gaussLST(3e3, 0.5e-3, 0); !near(v, math.Exp(-1.5), 1e-15) {
		t.Fatalf("deterministic LST = %v", v)
	}
}

// truncGaussLSTQuad integrates e^(-sx) against the N(mu, sigma^2) density
// truncated to x > 0 by composite Simpson.
func truncGaussLSTQuad(s, mu, sigma float64) float64 {
	simpson := func(f func(float64) float64, hi float64) float64 {
		const n = 40000
		step := hi / n
		sum := f(0) + f(hi)
		for i := 1; i < n; i++ {
			sum += float64(2+2*(i%2)) * f(float64(i)*step)
		}
		return sum * step / 3
	}
	density := func(x float64) float64 { return math.Exp(-(x - mu) * (x - mu) / (2 * sigma * sigma)) }
	num := simpson(func(x float64) float64 { return math.Exp(-s*x) * density(x) }, math.Min(mu+12*sigma, 80/s))
	return num / simpson(density, mu+12*sigma)
}

// LSTs are completely monotone; at minimum they must be decreasing in s.
func TestLSTMonotonicityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		sp := ServiceParams{
			PI:   r.Float64(),
			EncI: r.Float64(), EncP: r.Float64(),
			EncMeanI: 0.5e-3 + r.Float64()*2e-3, EncSigmaI: r.Float64() * 0.2e-3,
			EncMeanP: 0.2e-3 + r.Float64()*1e-3, EncSigmaP: r.Float64() * 0.1e-3,
			TxMeanI: 1e-3 + r.Float64()*2e-3, TxSigmaI: r.Float64() * 0.2e-3,
			TxMeanP: 0.5e-3 + r.Float64()*1e-3, TxSigmaP: r.Float64() * 0.1e-3,
			PS: 0.8 + r.Float64()*0.2, LambdaB: 500 + r.Float64()*1000,
		}
		prev := sp.LST(0)
		if math.Abs(prev-1) > 1e-9 {
			return false
		}
		for s := 10.0; s <= 200; s += 10 {
			v := sp.LST(s)
			if v > prev+1e-12 || v < 0 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FrameSuccess must be non-decreasing in pd and non-increasing in s for
// any (n, s) pair.
func TestFrameSuccessMonotonicityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 1 + r.Intn(12)
		s := r.Intn(n)
		prev := -1.0
		for pd := 0.0; pd <= 1.0001; pd += 0.05 {
			v := FrameSuccess(pd, n, s)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The intra-GOP ramp must stay within [dmin/G, dmax] for any valid setup.
func TestIntraGOPDistortionBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		g := 3 + r.Intn(60)
		dmin := r.Float64() * 100
		dmax := dmin + r.Float64()*1000
		for i := 1; i <= g-1; i++ {
			d := IntraGOPDistortion(i, g, dmin, dmax)
			if d < dmin/float64(g)-1e-9 || d > dmax+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

package analytic

import (
	"errors"
	"fmt"
	"math"
)

// QueueResult holds the stationary delay of the sender queue under one
// encryption policy, the analytical counterpart of the measurements in
// Figs. 7-8.
type QueueResult struct {
	Rho         float64 // traffic intensity lambda * E[S]
	MeanWait    float64 // E[W]: mean time in queue before service (Eq. 19)
	MeanSojourn float64 // E[W] + E[S]: queue entry to transmission complete
	MeanService float64 // E[S]
}

// ErrUnstable is returned when the offered load is at or beyond capacity.
var ErrUnstable = errors.New("analytic: queue unstable (rho >= 1)")

// SolveQueue computes the stationary mean delay of the 2-MMPP/G/1 sender
// queue of Section 4.2 for the given arrival process and service
// parameters: Eq. (19), evaluated as in [18]/[16] from the service LST of
// Eqs. (5)-(18) and the moments of Eqs. (4) and (8). In the Poisson limit
// (Lambda1 = Lambda2) it is Pollaczek-Khinchine.
func SolveQueue(arrival MMPP2, service ServiceParams) (QueueResult, error) {
	if err := arrival.Validate(); err != nil {
		return QueueResult{}, err
	}
	if err := service.Validate(); err != nil {
		return QueueResult{}, err
	}
	h, h2 := service.Moments()
	rho := arrival.MeanRate() * h
	if rho >= 1 {
		return QueueResult{Rho: rho}, fmt.Errorf("%w: rho=%.4f", ErrUnstable, rho)
	}
	w, err := solve2(arrival, service.LST, h, h2)
	if err != nil {
		return QueueResult{}, err
	}
	return QueueResult{Rho: rho, MeanWait: w, MeanSojourn: w + h, MeanService: h}, nil
}

// solve2 returns the mean wait of an arriving packet in the stable
// 2-MMPP/G/1 queue with service LST lst and service moments h = E[S],
// h2 = E[S²] (Heffes & Lucantoni 1986; Lucantoni 1991). Write the MMPP as
// the MAP D0 = R - Λ, D1 = Λ, D = D0 + D1 = R, with stationary vector π
// and rate λ = πΛe.
func solve2(arr MMPP2, lst func(float64) float64, h, h2 float64) (float64, error) {
	// Step 1: the first-passage matrix G, the minimal solution of
	// G = ∫ exp((D0 + D1 G)t) dH(t), by functional iteration over the
	// stochastic matrices G = [[1-x, x], [y, 1-y]] from G = I. Q = D0 + D1 G
	// is the generator with off-diagonals a = P1 + λ1 x and b = P2 + λ2 y;
	// with κ = a + b and Π = e (b, a)/κ, exp(Qt) = Π + e^(-κt) (I - Π), so
	// G ← Π + H(κ)(I - Π): x = (1 - H(κ)) a/κ, y = (1 - H(κ)) b/κ.
	const (
		maxIter = 1000
		tol     = 1e-15
	)
	var x, y float64
	for iter := 0; ; iter++ {
		if iter == maxIter {
			return 0, fmt.Errorf("analytic: G iteration did not converge in %d steps", maxIter)
		}
		a := arr.P1 + arr.Lambda1*x
		b := arr.P2 + arr.Lambda2*y
		k := a + b
		hk := lst(k)
		if !(hk > 0 && hk < 1) {
			return 0, fmt.Errorf("analytic: service LST %g at s=%g is outside (0, 1)", hk, k)
		}
		nx, ny := (1-hk)*a/k, (1-hk)*b/k
		done := math.Abs(nx-x) <= tol*nx && math.Abs(ny-y) <= tol*ny
		x, y = nx, ny
		if done {
			break
		}
	}

	// Step 2: differentiate W(s)[sI + D0 + D1 H(s)] = s(1-ρ)g twice at
	// s = 0, with g = (y, x)/(x+y) the stationary vector of G:
	//   c   = [(1-ρ)g + h πD1] (D + eπ)⁻¹ λ⃗
	//   W_v = (2ρ + λ h2 - 2h c) / (2(1-ρ))   (time-average wait)
	//   E[W] = 1 + W_v - c/λ                  (wait seen by an arrival)
	// (D + eπ)⁻¹ fixes e and scales (π2, -π1)ᵀ by -1/(P1+P2), and
	// λ⃗ = λe + (λ1-λ2)(π2, -π1)ᵀ, so c = λ(1 - δ) in closed form below.
	// In the Poisson limit λ1 = λ2, δ = 0 and E[W] = W_v is
	// Pollaczek-Khinchine.
	pi := arr.Stationary()
	lambda := arr.MeanRate()
	rho := lambda * h
	g1, g2 := y/(x+y), x/(x+y)
	dl := arr.Lambda1 - arr.Lambda2
	delta := ((1-rho)*dl*(g1*pi[1]-g2*pi[0]) + h*pi[0]*pi[1]*dl*dl) /
		((arr.P1 + arr.P2) * lambda)
	wv := (lambda*h2 + 2*rho*delta) / (2 * (1 - rho))
	return wv + delta, nil
}

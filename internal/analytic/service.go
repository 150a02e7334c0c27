package analytic

import (
	"fmt"
	"math"
)

// ServiceParams describes the per-packet service time of Eq. (3),
// T = Te + Tb + Tt: the (policy-dependent) encryption time, the MAC backoff
// time, and the transmission time. Times are in seconds.
//
// The paper parameterises packet selection with a single probability q(P)
// that a packet is encrypted (Eq. 4). Real policies select by frame class
// ("encrypt the I-frame packets"), so we carry one selection probability per
// class: EncI (probability an I-frame packet is encrypted) and EncP (same
// for P-frame packets). The paper's form is the special case EncI = EncP =
// q; the fraction of encrypted packets q(P) = PI*EncI + (1-PI)*EncP either
// way, which is what the distortion model consumes.
type ServiceParams struct {
	// PI is p_I, the probability an arriving packet belongs to an I-frame.
	PI float64

	// EncI, EncP are the per-class encryption selection probabilities of
	// the policy in effect.
	EncI, EncP float64

	// Encryption time of an MTU-sized I-frame packet and of a (smaller)
	// P-frame packet: mean and standard deviation of the Gaussian
	// variation model of Eq. (15).
	EncMeanI, EncSigmaI float64
	EncMeanP, EncSigmaP float64

	// Transmission times per class (Eq. 16).
	TxMeanI, TxSigmaI float64
	TxMeanP, TxSigmaP float64

	// PS is the packet success probability p_s of Section 4.1 and LambdaB
	// the backoff rate of Eq. (6)-(7): a packet waits a geometric number of
	// exponential(LambdaB) intervals, zero with probability PS.
	PS, LambdaB float64
}

// Validate reports whether the parameters are usable.
func (sp ServiceParams) Validate() error {
	switch {
	case sp.PI < 0 || sp.PI > 1:
		return fmt.Errorf("analytic: PI=%g out of [0,1]", sp.PI)
	case sp.EncI < 0 || sp.EncI > 1 || sp.EncP < 0 || sp.EncP > 1:
		return fmt.Errorf("analytic: encryption probabilities out of [0,1]")
	case sp.EncMeanI < 0 || sp.EncMeanP < 0:
		return fmt.Errorf("analytic: negative encryption means")
	case sp.TxMeanI <= 0 || sp.TxMeanP <= 0:
		return fmt.Errorf("analytic: transmission means must be positive")
	case sp.PS <= 0 || sp.PS > 1:
		return fmt.Errorf("analytic: PS=%g out of (0,1]", sp.PS)
	case sp.PS < 1 && sp.LambdaB <= 0:
		return fmt.Errorf("analytic: LambdaB must be positive when PS<1")
	}
	return nil
}

// EncryptedFraction returns q(P), the stationary fraction of packets the
// policy encrypts.
func (sp ServiceParams) EncryptedFraction() float64 {
	return sp.PI*sp.EncI + (1-sp.PI)*sp.EncP
}

// encMoments returns E[Te] and E[Te^2] of the encryption component, a
// mixture over {encrypted-I, encrypted-P, plaintext}.
func (sp ServiceParams) encMoments() (m1, m2 float64) {
	wI := sp.PI * sp.EncI
	wP := (1 - sp.PI) * sp.EncP
	m1 = wI*sp.EncMeanI + wP*sp.EncMeanP
	m2 = wI*(sp.EncMeanI*sp.EncMeanI+sp.EncSigmaI*sp.EncSigmaI) +
		wP*(sp.EncMeanP*sp.EncMeanP+sp.EncSigmaP*sp.EncSigmaP)
	return
}

// backoffMoments returns E[Tb] and E[Tb^2] from Eq. (7): Tb = 0 w.p. ps,
// else Exp(ps*lambdaB).
func (sp ServiceParams) backoffMoments() (m1, m2 float64) {
	if sp.PS >= 1 {
		return 0, 0
	}
	rate := sp.PS * sp.LambdaB
	m1 = (1 - sp.PS) / rate
	m2 = (1 - sp.PS) * 2 / (rate * rate)
	return
}

// txMoments returns E[Tt] and E[Tt^2], the I/P mixture of Eq. (8).
func (sp ServiceParams) txMoments() (m1, m2 float64) {
	m1 = sp.PI*sp.TxMeanI + (1-sp.PI)*sp.TxMeanP
	m2 = sp.PI*(sp.TxMeanI*sp.TxMeanI+sp.TxSigmaI*sp.TxSigmaI) +
		(1-sp.PI)*(sp.TxMeanP*sp.TxMeanP+sp.TxSigmaP*sp.TxSigmaP)
	return
}

// Moments returns the exact first and second raw moments of the total
// service time T = Te + Tb + Tt under the paper's mutual-independence
// assumption (Eq. 10): means add, and
// E[T^2] = sum E[X^2] + 2*sum_{i<j} E[X_i]E[X_j].
func (sp ServiceParams) Moments() (m1, m2 float64) {
	e1, e2 := sp.encMoments()
	b1, b2 := sp.backoffMoments()
	t1, t2 := sp.txMoments()
	m1 = e1 + b1 + t1
	m2 = e2 + b2 + t2 + 2*(e1*b1+e1*t1+b1*t1)
	return
}

// Mean returns E[T].
func (sp ServiceParams) Mean() float64 {
	m1, _ := sp.Moments()
	return m1
}

// LST evaluates the service-time Laplace-Stieltjes transform of Eq. (10)
// at real s: H(s) = He(s) * Hb(s) * Ht(s), with the Gaussian-variation
// component transforms of Eqs. (17) and (18) and the backoff transform of
// Eq. (7). Valid for s > -PS*LambdaB, the backoff transform's pole.
func (sp ServiceParams) LST(s float64) float64 {
	return sp.lstEnc(s) * sp.lstBackoff(s) * sp.lstTx(s)
}

// gaussLST is the LST of the Gaussian variation model of Eqs. (17)-(18)
// truncated at zero, the law internal/queuesim samples:
//
//	exp(-mu s + sigma² s²/2) * Phi(mu/sigma - sigma s) / Phi(mu/sigma).
//
// The paper's untruncated form exp(-mu s + sigma² s²/2) exceeds 1 once
// s > 2mu/sigma², which the G iteration of SolveQueue reaches for slow
// ciphers under bursty arrivals. With m = mu/(sigma√2) and
// t = sigma s/√2 - m, Phi(mu/sigma - sigma s) = erfc(t)/2.
func gaussLST(s, mu, sigma float64) float64 {
	if sigma <= 0 {
		return math.Exp(-mu * s)
	}
	m := mu / (sigma * math.Sqrt2)
	t := sigma*s/math.Sqrt2 - m
	if t < 26 {
		return math.Exp(-mu*s+0.5*sigma*sigma*s*s) * math.Erfc(t) / math.Erfc(-m)
	}
	// erfc(t) underflows from t ≈ 26.5 on; since -mu s + sigma² s²/2 =
	// t² - m², carry exp(t²) erfc(t) by its asymptotic series instead
	// (relative error below 1e-12 here).
	u := 1 / (2 * t * t)
	sum, term := 1.0, 1.0
	for n := 1; n <= 5; n++ {
		term *= -float64(2*n-1) * u
		sum += term
	}
	return math.Exp(-m*m) * sum / (t * math.SqrtPi) / math.Erfc(-m)
}

// lstEnc is Eq. (17) generalised to per-class selection probabilities; the
// plaintext branch contributes its mass at zero (the term the paper leaves
// implicit).
func (sp ServiceParams) lstEnc(s float64) float64 {
	wI := sp.PI * sp.EncI
	wP := (1 - sp.PI) * sp.EncP
	return wI*gaussLST(s, sp.EncMeanI, sp.EncSigmaI) +
		wP*gaussLST(s, sp.EncMeanP, sp.EncSigmaP) +
		(1 - wI - wP)
}

// lstBackoff is Eq. (7): Hb(s) = ps (lambdaB + s) / (s + ps*lambdaB).
func (sp ServiceParams) lstBackoff(s float64) float64 {
	if sp.PS >= 1 {
		return 1
	}
	return sp.PS * (sp.LambdaB + s) / (s + sp.PS*sp.LambdaB)
}

// lstTx is Eq. (18).
func (sp ServiceParams) lstTx(s float64) float64 {
	return sp.PI*gaussLST(s, sp.TxMeanI, sp.TxSigmaI) +
		(1-sp.PI)*gaussLST(s, sp.TxMeanP, sp.TxSigmaP)
}

package analytic

import (
	"errors"
	"math"
	"testing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func relNear(a, b, rel float64) bool {
	if b == 0 {
		return math.Abs(a) < rel
	}
	return math.Abs(a-b) <= rel*math.Abs(b)
}

// poissonArrivals builds a degenerate MMPP that is exactly a Poisson
// process with the given rate (both states identical).
func poissonArrivals(rate float64) MMPP2 {
	return MMPP2{P1: 1, P2: 1, Lambda1: rate, Lambda2: rate}
}

// simpleService builds service parameters with a single Gaussian
// component: with PI=0, no encryption and no backoff, service is the
// transmission time of the P class.
func simpleService(mean, sigma float64) ServiceParams {
	return ServiceParams{
		PI:       0,
		TxMeanI:  mean, // unused (PI=0) but must validate
		TxMeanP:  mean,
		TxSigmaP: sigma,
		PS:       1,
	}
}

// pkWait is the Pollaczek-Khinchine mean wait of the M/G/1 queue.
func pkWait(lambda, m1, m2 float64) float64 {
	return lambda * m2 / (2 * (1 - lambda*m1))
}

// Golden E[W] of the MMPP/PH/1 matrix-geometric (QBD) solver that
// SolveQueue used up to commit 2685e28d265bacad9263f5d240fd8f38e607b70a,
// on service laws a phase-type representation holds exactly: exponential
// (k=1) and Erlang-k with the case's mean. The 2x2 solve must reproduce
// them.
var qbdGolden = []struct {
	name string
	arr  MMPP2
	mean float64
	wait [3]float64 // k = 1, 2, 4
}{
	{"poisson", MMPP2{P1: 1, P2: 1, Lambda1: 200, Lambda2: 200}, 3e-3,
		[3]float64{0.004499999999999971, 0.0033750000000000026, 0.002812499999999999}},
	{"bursty", MMPP2{P1: 300, P2: 15, Lambda1: 1500, Lambda2: 120}, 2.5e-3,
		[3]float64{0.008187535691738199, 0.007621922452338799, 0.0073405235792670474}},
	{"p-dominated", MMPP2{P1: 400, P2: 10, Lambda1: 1000, Lambda2: 100}, 4e-3,
		[3]float64{0.0065372017027282873, 0.0055742065825489665, 0.0050935894622148523}},
}

func TestSolve2MatchesQBDGolden(t *testing.T) {
	for _, c := range qbdGolden {
		for i, k := range []float64{1, 2, 4} {
			m := c.mean
			erlang := func(s float64) float64 { return math.Pow(1+s*m/k, -k) }
			w, err := solve2(c.arr, erlang, m, m*m*(1+1/k))
			if err != nil {
				t.Fatalf("%s k=%v: %v", c.name, k, err)
			}
			if !relNear(w, c.wait[i], 1e-9) {
				t.Errorf("%s k=%v: E[W] = %.17g, QBD %.17g", c.name, k, w, c.wait[i])
			}
		}
	}
}

// On BenchmarkSolveQueue's parameters the QBD's Erlang fit of the Gaussian
// components converged towards E[W] = 2.5143, 2.5066 and 2.5028 ms at
// orders 16, 32 and 64 (commit 2685e28); the exact solve sits within 0.1%
// of the order-64 value.
func TestSolveQueueNearOrder64QBD(t *testing.T) {
	const order64 = 2.502750698e-3
	arr := MMPP2{P1: 300, P2: 15, Lambda1: 1500, Lambda2: 120}
	sp := ServiceParams{
		PI:   arr.IFramePacketFraction(),
		EncI: 1, EncP: 0.2,
		EncMeanI: 0.8e-3, EncSigmaI: 0.1e-3,
		EncMeanP: 0.4e-3, EncSigmaP: 0.05e-3,
		TxMeanI: 1.6e-3, TxSigmaI: 0.15e-3,
		TxMeanP: 0.7e-3, TxSigmaP: 0.08e-3,
		PS: 0.93, LambdaB: 900,
	}
	res, err := SolveQueue(arr, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !relNear(res.MeanWait, order64, 1e-3) {
		t.Fatalf("E[W] = %v, order-64 QBD %v", res.MeanWait, order64)
	}
}

func TestSolveQueueMM1Limit(t *testing.T) {
	// sigma = mean gives the exponential's second moment 2*mean^2, and in
	// the Poisson limit only the first two moments enter.
	mean := 0.01
	sp := simpleService(mean, mean)
	lambda := 60.0
	res, err := SolveQueue(poissonArrivals(lambda), sp)
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda * mean
	wantW := rho * mean / (1 - rho) // M/M/1: E[W] = rho/(mu-lambda)
	if !relNear(res.MeanWait, wantW, 1e-12) {
		t.Fatalf("E[W] = %v want %v", res.MeanWait, wantW)
	}
	if !relNear(res.Rho, rho, 1e-12) {
		t.Fatalf("rho = %v want %v", res.Rho, rho)
	}
	// Little: E[L] = lambda * E[T] = rho/(1-rho).
	if wantL := rho / (1 - rho); !relNear(lambda*res.MeanSojourn, wantL, 1e-12) {
		t.Fatalf("E[L] = %v want %v", lambda*res.MeanSojourn, wantL)
	}
}

func TestSolveQueueMG1Limit(t *testing.T) {
	// Poisson arrivals: Pollaczek-Khinchine on the service moments, for a
	// single Gaussian and for the full encryption/backoff/transmission
	// mixture.
	full := ServiceParams{
		PI:   0.3,
		EncI: 1, EncP: 0.2,
		EncMeanI: 1e-3, EncSigmaI: 0.2e-3,
		EncMeanP: 0.4e-3, EncSigmaP: 0.1e-3,
		TxMeanI: 2e-3, TxSigmaI: 0.4e-3,
		TxMeanP: 0.7e-3, TxSigmaP: 0.2e-3,
		PS: 0.9, LambdaB: 800,
	}
	for _, sp := range []ServiceParams{simpleService(0.008, 0.002), full} {
		lambda := 80.0
		res, err := SolveQueue(poissonArrivals(lambda), sp)
		if err != nil {
			t.Fatal(err)
		}
		m1, m2 := sp.Moments()
		if want := pkWait(lambda, m1, m2); !relNear(res.MeanWait, want, 1e-12) {
			t.Fatalf("E[W] = %v want PK %v", res.MeanWait, want)
		}
	}
}

func TestSolveQueueMD1Limit(t *testing.T) {
	mean := 0.005
	sp := simpleService(mean, 0)
	lambda := 120.0
	res, err := SolveQueue(poissonArrivals(lambda), sp)
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda * mean
	if md1 := rho * mean / (2 * (1 - rho)); !relNear(res.MeanWait, md1, 1e-12) {
		t.Fatalf("E[W] = %v want M/D/1 %v", res.MeanWait, md1)
	}
}

// The 3DES high-motion cells of Figs. 7-8 drive the G iteration to
// s = kappa of tens of thousands per second, past 2mu/sigma^2 of their
// P-frame encryption law, where the untruncated Gaussian LST exceeds 1.
func TestSolveQueueSlowCipherBurst(t *testing.T) {
	arr := MMPP2{P1: 3000, P2: 30, Lambda1: 30000, Lambda2: 60}
	sp := ServiceParams{
		PI:   arr.IFramePacketFraction(),
		EncI: 1, EncP: 1,
		EncMeanI: 0.9e-3, EncSigmaI: 0.3e-3,
		EncMeanP: 0.4e-3, EncSigmaP: 0.2e-3,
		TxMeanI: 0.2e-3, TxSigmaI: 0.02e-3,
		TxMeanP: 0.1e-3, TxSigmaP: 0.01e-3,
		PS: 1,
	}
	s := 2 * sp.EncMeanP / (sp.EncSigmaP * sp.EncSigmaP) * 2
	if paper := math.Exp(-sp.EncMeanP*s + 0.5*sp.EncSigmaP*sp.EncSigmaP*s*s); paper <= 1 {
		t.Fatalf("test law should leave the paper's LST above 1 at s=%v, got %v", s, paper)
	}
	res, err := SolveQueue(arr, sp)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.MeanWait) || res.MeanWait <= 0 || math.IsInf(res.MeanWait, 0) {
		t.Fatalf("E[W] = %v", res.MeanWait)
	}
	pois, err := SolveQueue(poissonArrivals(arr.MeanRate()), sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanWait <= pois.MeanWait {
		t.Fatalf("bursty E[W]=%v should exceed Poisson %v", res.MeanWait, pois.MeanWait)
	}
}

func TestSolveQueueBurstinessRaisesDelay(t *testing.T) {
	// An MMPP with the same mean rate but bursty arrivals must see a
	// larger mean wait than the Poisson process of equal rate.
	mean := 0.004
	sp := simpleService(mean, 0.001)
	bursty := MMPP2{P1: 20, P2: 20, Lambda1: 180, Lambda2: 20} // mean 100
	smooth := poissonArrivals(bursty.MeanRate())
	rb, err := SolveQueue(bursty, sp)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SolveQueue(smooth, sp)
	if err != nil {
		t.Fatal(err)
	}
	if rb.MeanWait <= rs.MeanWait {
		t.Fatalf("bursty E[W]=%v should exceed Poisson E[W]=%v", rb.MeanWait, rs.MeanWait)
	}
}

func TestSolveQueueUnstable(t *testing.T) {
	sp := simpleService(0.02, 0.001)
	_, err := SolveQueue(poissonArrivals(60), sp) // rho = 1.2
	if !errors.Is(err, ErrUnstable) {
		t.Fatalf("want ErrUnstable, got %v", err)
	}
}

func TestSolveQueueEncryptionIncreasesDelay(t *testing.T) {
	// Paper-shaped workload: short I-frame bursts (state 1) inside long
	// P-frame stretches, so only ~20% of packets belong to I-frames and the
	// numerous P packets dominate total encryption work (the reason
	// Figs. 7-8 show delay(P) ~ delay(all) >> delay(I)).
	arr := MMPP2{P1: 400, P2: 10, Lambda1: 1000, Lambda2: 100}
	if pI := arr.IFramePacketFraction(); pI > 0.3 {
		t.Fatalf("test workload should be P-dominated, pI = %v", pI)
	}
	base := ServiceParams{
		PI:       arr.IFramePacketFraction(),
		EncMeanI: 0.9e-3, EncSigmaI: 0.1e-3,
		EncMeanP: 0.5e-3, EncSigmaP: 0.05e-3,
		TxMeanI: 1.8e-3, TxSigmaI: 0.1e-3,
		TxMeanP: 0.6e-3, TxSigmaP: 0.05e-3,
		PS: 0.95, LambdaB: 500,
	}
	delays := map[string]float64{}
	for name, enc := range map[string][2]float64{
		"none": {0, 0}, "I": {1, 0}, "P": {0, 1}, "all": {1, 1},
	} {
		sp := base
		sp.EncI, sp.EncP = enc[0], enc[1]
		res, err := SolveQueue(arr, sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		delays[name] = res.MeanSojourn
	}
	if !(delays["none"] < delays["I"] && delays["I"] < delays["all"]) {
		t.Fatalf("expected none < I < all, got %v", delays)
	}
	if !(delays["P"] <= delays["all"] && delays["P"] > delays["I"]) {
		// With mostly P packets (pI small), P-encryption dominates cost,
		// as the paper observes in Fig. 7.
		t.Fatalf("expected I < P <= all, got %v", delays)
	}
}

func TestSolveQueueMatchesPaperOrdering3DESvsAES(t *testing.T) {
	arr := MMPP2{P1: 50, P2: 5, Lambda1: 1200, Lambda2: 40}
	mk := func(encScale float64) float64 {
		sp := ServiceParams{
			PI:   arr.IFramePacketFraction(),
			EncI: 1, EncP: 1,
			EncMeanI: 0.9e-3 * encScale, EncSigmaI: 0.1e-3,
			EncMeanP: 0.3e-3 * encScale, EncSigmaP: 0.05e-3,
			TxMeanI: 1.8e-3, TxSigmaI: 0.1e-3,
			TxMeanP: 0.6e-3, TxSigmaP: 0.05e-3,
			PS: 0.95, LambdaB: 500,
		}
		res, err := SolveQueue(arr, sp)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanSojourn
	}
	aes := mk(1)
	tdes := mk(4) // 3DES is several times slower per byte
	if tdes <= aes {
		t.Fatalf("3DES-like service should be slower: %v vs %v", tdes, aes)
	}
}

func TestServiceLSTConsistency(t *testing.T) {
	sp := ServiceParams{
		PI:   0.25,
		EncI: 1, EncP: 0,
		EncMeanI: 1e-3, EncSigmaI: 0.1e-3,
		EncMeanP: 0.4e-3,
		TxMeanI:  2e-3, TxSigmaI: 0.2e-3,
		TxMeanP: 0.7e-3, TxSigmaP: 0.1e-3,
		PS: 0.92, LambdaB: 700,
	}
	// LST(0) = 1 and -LST'(0) = mean.
	if !near(sp.LST(0), 1, 1e-12) {
		t.Fatalf("LST(0) = %v", sp.LST(0))
	}
	h := 1e-4
	m1, _ := sp.Moments()
	numMean := (1 - sp.LST(h)) / h
	if !relNear(numMean, m1, 1e-3) {
		t.Fatalf("numeric mean %v vs %v", numMean, m1)
	}
}

func TestServiceEncryptedFraction(t *testing.T) {
	sp := ServiceParams{PI: 0.3, EncI: 1, EncP: 0.5}
	if !near(sp.EncryptedFraction(), 0.3+0.7*0.5, 1e-12) {
		t.Fatalf("q = %v", sp.EncryptedFraction())
	}
}

func TestServiceValidate(t *testing.T) {
	good := simpleService(0.01, 0.001)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.PS = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("PS=0 should fail")
	}
	bad = good
	bad.PI = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("PI>1 should fail")
	}
	bad = good
	bad.TxMeanP = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero transmission time should fail")
	}
	bad = good
	bad.PS = 0.5
	bad.LambdaB = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("PS<1 with no backoff rate should fail")
	}
}

func TestSolveQueueLoadMonotonicity(t *testing.T) {
	sp := simpleService(0.002, 0.0005)
	prev := -1.0
	for _, lambda := range []float64{50, 150, 300, 420} {
		res, err := SolveQueue(poissonArrivals(lambda), sp)
		if err != nil {
			t.Fatalf("lambda=%v: %v", lambda, err)
		}
		if res.MeanWait <= prev {
			t.Fatalf("E[W] must grow with load: %v then %v", prev, res.MeanWait)
		}
		prev = res.MeanWait
	}
}

func TestSolveQueueBackoffIncreasesDelay(t *testing.T) {
	arr := poissonArrivals(100)
	noLoss := simpleService(0.003, 0.0005)
	withLoss := noLoss
	withLoss.PS = 0.8
	withLoss.LambdaB = 400
	r1, err := SolveQueue(arr, noLoss)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveQueue(arr, withLoss)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MeanSojourn <= r1.MeanSojourn {
		t.Fatalf("backoff should add delay: %v vs %v", r2.MeanSojourn, r1.MeanSojourn)
	}
	if math.Abs((r2.MeanService-r1.MeanService)-(1-0.8)/(0.8*400)) > 1e-9 {
		t.Fatalf("backoff mean contribution wrong: %v", r2.MeanService-r1.MeanService)
	}
}

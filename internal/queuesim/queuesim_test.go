package queuesim

import (
	"math"
	"testing"

	"repro/internal/analytic"
)

func poisson(rate float64) analytic.MMPP2 {
	return analytic.MMPP2{P1: 1, P2: 1, Lambda1: rate, Lambda2: rate}
}

func TestRunMatchesMM1(t *testing.T) {
	// Poisson arrivals and a tight-variance Gaussian service: the sim must
	// match Pollaczek-Khinchine, E[W] = lambda E[S^2] / (2(1-rho)).
	mean := 0.002
	sp := analytic.ServiceParams{
		PI: 0, TxMeanI: mean, TxMeanP: mean, TxSigmaP: 0.0004, PS: 1,
	}
	lambda := 300.0
	res, err := Run(poisson(lambda), sp, Options{Duration: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := sp.Moments()
	pk := lambda * m2 / (2 * (1 - lambda*m1))
	if math.Abs(res.MeanWait-pk) > 3*res.WaitCI95+0.05*pk {
		t.Fatalf("sim wait %v vs P-K %v (CI %v)", res.MeanWait, pk, res.WaitCI95)
	}
	if math.Abs(res.UtilBusy-lambda*m1) > 0.02 {
		t.Fatalf("utilisation %v vs rho %v", res.UtilBusy, lambda*m1)
	}
}

func TestRunMatchesSolveQueueUnderMMPP(t *testing.T) {
	// The headline validation: DES vs the analytic 2-MMPP/G/1 solve on a
	// bursty MMPP with policy-dependent service.
	arr := analytic.MMPP2{P1: 300, P2: 15, Lambda1: 1500, Lambda2: 120}
	sp := analytic.ServiceParams{
		PI:   arr.IFramePacketFraction(),
		EncI: 1, EncP: 0.2,
		EncMeanI: 0.8e-3, EncSigmaI: 0.1e-3,
		EncMeanP: 0.4e-3, EncSigmaP: 0.05e-3,
		TxMeanI: 1.6e-3, TxSigmaI: 0.15e-3,
		TxMeanP: 0.7e-3, TxSigmaP: 0.08e-3,
		PS: 0.93, LambdaB: 900,
	}
	ana, err := analytic.SolveQueue(arr, sp)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Run(arr, sp, Options{Duration: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Agreement within 10% (MMPP burstiness makes the CI wide).
	if math.Abs(sim.MeanWait-ana.MeanWait) > 0.10*ana.MeanWait+3*sim.WaitCI95 {
		t.Fatalf("sim %v vs analytic %v (CI %v)", sim.MeanWait, ana.MeanWait, sim.WaitCI95)
	}
	if math.Abs(sim.MeanService-ana.MeanService) > 0.03*ana.MeanService {
		t.Fatalf("service %v vs %v", sim.MeanService, ana.MeanService)
	}
	// Realised encrypted fraction ~ q = pI*1 + (1-pI)*0.2.
	wantQ := sp.EncryptedFraction()
	if math.Abs(sim.EncryptedPct-wantQ) > 0.03 {
		t.Fatalf("encrypted fraction %v want %v", sim.EncryptedPct, wantQ)
	}
}

func TestRunPolicyOrdering(t *testing.T) {
	arr := analytic.MMPP2{P1: 400, P2: 10, Lambda1: 1000, Lambda2: 100}
	base := analytic.ServiceParams{
		PI:       arr.IFramePacketFraction(),
		EncMeanI: 0.9e-3, EncMeanP: 0.5e-3,
		TxMeanI: 1.8e-3, TxMeanP: 0.6e-3,
		PS: 1,
	}
	wait := func(encI, encP float64) float64 {
		sp := base
		sp.EncI, sp.EncP = encI, encP
		r, err := Run(arr, sp, Options{Duration: 1500, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanSojourn
	}
	none := wait(0, 0)
	iOnly := wait(1, 0)
	all := wait(1, 1)
	if !(none < iOnly && iOnly < all) {
		t.Fatalf("ordering violated: %v %v %v", none, iOnly, all)
	}
}

func TestRunErrors(t *testing.T) {
	sp := analytic.ServiceParams{PI: 0, TxMeanI: 1e-3, TxMeanP: 1e-3, PS: 1}
	if _, err := Run(poisson(10), sp, Options{Duration: 0}); err == nil {
		t.Fatal("zero duration should fail")
	}
	if _, err := Run(poisson(10), sp, Options{Duration: 10, WarmupFraction: 2}); err == nil {
		t.Fatal("warmup >= 1 should fail")
	}
	bad := sp
	bad.PS = 0
	if _, err := Run(poisson(10), bad, Options{Duration: 10}); err == nil {
		t.Fatal("invalid service should fail")
	}
	if _, err := Run(analytic.MMPP2{}, sp, Options{Duration: 10}); err == nil {
		t.Fatal("invalid arrival should fail")
	}
}

func TestRunDeterministic(t *testing.T) {
	arr := poisson(200)
	sp := analytic.ServiceParams{PI: 0, TxMeanI: 2e-3, TxMeanP: 2e-3, TxSigmaP: 0.2e-3, PS: 1}
	a, err := Run(arr, sp, Options{Duration: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(arr, sp, Options{Duration: 100, Seed: 9})
	if a.MeanWait != b.MeanWait || a.Packets != b.Packets {
		t.Fatal("same seed must reproduce exactly")
	}
}

func TestRunIFractionMatchesModel(t *testing.T) {
	arr := analytic.MMPP2{P1: 400, P2: 10, Lambda1: 1000, Lambda2: 100}
	sp := analytic.ServiceParams{PI: 0.2, TxMeanI: 1e-3, TxMeanP: 1e-3, PS: 1}
	res, err := Run(arr, sp, Options{Duration: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.IFraction-arr.IFramePacketFraction()) > 0.02 {
		t.Fatalf("I fraction %v vs model %v", res.IFraction, arr.IFramePacketFraction())
	}
}

// The simulator's waiting-time distribution must show a heavier tail
// under bursty arrivals than under Poisson arrivals of equal rate.
func TestTailHeavierUnderBurstiness(t *testing.T) {
	sp := analytic.ServiceParams{
		PI: 0, TxMeanI: 2e-3, TxMeanP: 2e-3, TxSigmaP: 0.3e-3, PS: 1,
	}
	bursty := analytic.MMPP2{P1: 40, P2: 10, Lambda1: 800, Lambda2: 50}
	smooth := poisson(bursty.MeanRate())
	tail := func(arr analytic.MMPP2) float64 {
		res, err := Run(arr, sp, Options{Duration: 2000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res.P99Wait
	}
	if tb, ts := tail(bursty), tail(smooth); tb <= ts {
		t.Fatalf("bursty p99 wait %v should exceed smooth %v", tb, ts)
	}
}

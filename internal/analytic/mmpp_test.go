package analytic

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestMMPPStationary(t *testing.T) {
	m := MMPP2{P1: 2, P2: 3, Lambda1: 100, Lambda2: 10}
	pi := m.Stationary()
	if !near(pi[0], 0.6, 1e-12) || !near(pi[1], 0.4, 1e-12) {
		t.Fatalf("pi = %v", pi)
	}
	if !near(m.MeanRate(), 0.6*100+0.4*10, 1e-12) {
		t.Fatalf("mean rate = %v", m.MeanRate())
	}
}

func TestMMPPValidate(t *testing.T) {
	if err := (MMPP2{P1: 1, P2: 1, Lambda1: 1, Lambda2: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MMPP2{
		{P1: 0, P2: 1, Lambda1: 1, Lambda2: 1},
		{P1: 1, P2: -1, Lambda1: 1, Lambda2: 1},
		{P1: 1, P2: 1, Lambda1: -1, Lambda2: 1},
		{P1: 1, P2: 1, Lambda1: 0, Lambda2: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
}

func TestMMPPIFrameFraction(t *testing.T) {
	m := MMPP2{P1: 10, P2: 10, Lambda1: 900, Lambda2: 100}
	// Equal state occupancy; arrivals weighted 9:1.
	if f := m.IFramePacketFraction(); !near(f, 0.9, 1e-12) {
		t.Fatalf("pI = %v", f)
	}
}

func TestMMPPSampleRate(t *testing.T) {
	m := MMPP2{P1: 5, P2: 5, Lambda1: 200, Lambda2: 50}
	rng := stats.NewRNG(77)
	dur := 400.0
	samples := m.Sample(rng, dur)
	rate := float64(len(samples)) / dur
	if !relNear(rate, m.MeanRate(), 0.05) {
		t.Fatalf("sampled rate %v vs %v", rate, m.MeanRate())
	}
}

func TestFitMMPPRecovers(t *testing.T) {
	truth := MMPP2{P1: 30, P2: 6, Lambda1: 2000, Lambda2: 60}
	rng := stats.NewRNG(42)
	samples := truth.Sample(rng, 600)
	if len(samples) < 1000 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	got, err := FitMMPP2(samples)
	if err != nil {
		t.Fatal(err)
	}
	// The run-based estimator is biased (runs end at the first
	// opposite-class packet, not at the hidden state switch), so allow a
	// generous tolerance; what matters downstream is the overall rate and
	// the I-fraction.
	if !relNear(got.MeanRate(), truth.MeanRate(), 0.25) {
		t.Fatalf("fitted mean rate %v vs %v", got.MeanRate(), truth.MeanRate())
	}
	if math.Abs(got.IFramePacketFraction()-truth.IFramePacketFraction()) > 0.15 {
		t.Fatalf("fitted pI %v vs %v", got.IFramePacketFraction(), truth.IFramePacketFraction())
	}
	if got.Lambda1 < got.Lambda2 {
		t.Fatal("fit should keep state 1 the fast (I-frame) state")
	}
}

func TestFitMMPPErrors(t *testing.T) {
	if _, err := FitMMPP2(nil); err == nil {
		t.Fatal("empty input should fail")
	}
	// Out-of-order timestamps.
	bad := []ArrivalSample{
		{0, true}, {1, true}, {0.5, false}, {2, false},
		{3, true}, {4, false}, {5, true}, {6, false},
	}
	if _, err := FitMMPP2(bad); err == nil {
		t.Fatal("out-of-order input should fail")
	}
	// Single-class input.
	var single []ArrivalSample
	for i := 0; i < 20; i++ {
		single = append(single, ArrivalSample{Time: float64(i), IFrame: true})
	}
	if _, err := FitMMPP2(single); err == nil {
		t.Fatal("single-class input should fail")
	}
}

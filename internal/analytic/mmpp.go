package analytic

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// MMPP2 is a two-state Markov-modulated Poisson process (Eq. 1). State 1
// models the arrival of I-frame packets (small interarrival times, rate
// Lambda1); state 2 models P-frame packets (rate Lambda2). P1 is the
// transition rate from state 1 to state 2 and P2 from state 2 to state 1.
type MMPP2 struct {
	P1, P2           float64 // state-switch rates (1/s)
	Lambda1, Lambda2 float64 // arrival rates per state (packets/s)
}

// Validate reports whether the parameters describe a proper MMPP.
func (m MMPP2) Validate() error {
	if m.P1 <= 0 || m.P2 <= 0 {
		return fmt.Errorf("analytic: MMPP switch rates must be positive (p1=%g p2=%g)", m.P1, m.P2)
	}
	if m.Lambda1 < 0 || m.Lambda2 < 0 || stats.NearZero(m.Lambda1+m.Lambda2) {
		return fmt.Errorf("analytic: MMPP arrival rates invalid (l1=%g l2=%g)", m.Lambda1, m.Lambda2)
	}
	return nil
}

// Stationary returns the equilibrium probability vector pi of Eq. (2):
// pi = (p2, p1)/(p1+p2).
func (m MMPP2) Stationary() [2]float64 {
	s := m.P1 + m.P2
	return [2]float64{m.P2 / s, m.P1 / s}
}

// MeanRate returns the long-run packet arrival rate pi*lambda.
func (m MMPP2) MeanRate() float64 {
	pi := m.Stationary()
	return pi[0]*m.Lambda1 + pi[1]*m.Lambda2
}

// IFramePacketFraction returns p_I, the stationary probability that an
// arriving packet belongs to an I-frame. Arrivals are biased towards the
// high-rate state, so the fraction is rate-weighted:
// p_I = pi1*l1 / (pi1*l1 + pi2*l2).
func (m MMPP2) IFramePacketFraction() float64 {
	pi := m.Stationary()
	num := pi[0] * m.Lambda1
	den := num + pi[1]*m.Lambda2
	if stats.NearZero(den) {
		return 0
	}
	return num / den
}

// ArrivalSample is one observed packet arrival used for model calibration:
// its timestamp (seconds) and whether it belongs to an I-frame.
type ArrivalSample struct {
	Time   float64
	IFrame bool
}

// ErrInsufficientData is returned by FitMMPP2 when the measurement prefix
// does not contain enough of both packet classes.
var ErrInsufficientData = errors.New("analytic: not enough samples to fit MMPP")

// FitMMPP2 estimates MMPP parameters from a measurement prefix of packet
// arrivals, the calibration step of Section 6.1 ("Applying the mathematical
// framework"). Arrivals must be in non-decreasing time order.
//
// The estimator segments the trace into maximal runs of same-class packets:
// runs of I-frame packets are visits to state 1, runs of P-frame packets
// visits to state 2. Within-run interarrival times estimate Lambda1 and
// Lambda2; mean run durations estimate the state sojourn times 1/P1 and
// 1/P2.
func FitMMPP2(samples []ArrivalSample) (MMPP2, error) {
	if len(samples) < 8 {
		return MMPP2{}, ErrInsufficientData
	}
	// First pass: within-run interarrival gaps per class and the run
	// boundaries.
	type run struct {
		classI  bool
		span    float64
		packets int
	}
	var gapI, gapP []float64
	var runs []run
	cur := run{classI: samples[0].IFrame, packets: 1}
	runStart := samples[0].Time
	prev := samples[0].Time
	for _, s := range samples[1:] {
		if s.Time < prev {
			return MMPP2{}, fmt.Errorf("analytic: arrival samples out of order (%g after %g)", s.Time, prev)
		}
		if s.IFrame == cur.classI {
			gap := s.Time - prev
			if cur.classI {
				gapI = append(gapI, gap)
			} else {
				gapP = append(gapP, gap)
			}
			cur.packets++
			cur.span = s.Time - runStart
		} else {
			runs = append(runs, cur)
			cur = run{classI: s.IFrame, packets: 1}
			runStart = s.Time
		}
		prev = s.Time
	}
	runs = append(runs, cur)
	if len(gapI) < 2 || len(gapP) < 2 {
		return MMPP2{}, ErrInsufficientData
	}
	mGapI, mGapP := stats.Mean(gapI), stats.Mean(gapP)
	if mGapI <= 0 || mGapP <= 0 {
		return MMPP2{}, ErrInsufficientData
	}
	// Second pass: run durations. A run of n packets spans n-1 gaps; a
	// single-packet run still occupies roughly one interarrival of its
	// own class — crucially at the CLASS's gap scale, never the gap to
	// the next (other-class) packet, which can be orders of magnitude
	// larger and would wildly inflate the state's sojourn (and with it
	// the predicted burst length).
	var durI, durP []float64
	for _, r := range runs {
		gapScale := mGapP
		if r.classI {
			gapScale = mGapI
		}
		// An n-packet run spans n-1 gaps; floor at one gap so single-packet
		// runs get a sojourn at their class's own time scale.
		spans := r.packets - 1
		if spans < 1 {
			spans = 1
		}
		d := r.span
		if floor := gapScale * float64(spans); d < floor {
			d = floor
		}
		if r.classI {
			durI = append(durI, d)
		} else {
			durP = append(durP, d)
		}
	}
	if len(durI) < 1 || len(durP) < 1 {
		return MMPP2{}, ErrInsufficientData
	}
	mDurI, mDurP := stats.Mean(durI), stats.Mean(durP)
	if mGapI <= 0 || mGapP <= 0 || mDurI <= 0 || mDurP <= 0 {
		return MMPP2{}, ErrInsufficientData
	}
	m := MMPP2{
		Lambda1: 1 / mGapI,
		Lambda2: 1 / mGapP,
		P1:      1 / mDurI,
		P2:      1 / mDurP,
	}
	return m, m.Validate()
}

// FitMMPP2Bursts fits the MMPP on timing alone: every interarrival gap
// below gapThreshold belongs to the high-rate burst state (frame
// fragmentation bursts — I-frames always, and large P-frames too), larger
// gaps to the low-rate state. This captures the queueing-relevant
// burstiness better than class-labelled fitting when P-frames also
// fragment into multi-packet bursts (fast motion), where a class-based
// state assignment averages 50 us intra-burst gaps with 33 ms inter-frame
// gaps and badly understates the variance the queue sees.
//
// The low-rate state is matched so that one visit produces one arrival on
// average (lambda2 = p2 = 1/mean large gap).
func FitMMPP2Bursts(samples []ArrivalSample, gapThreshold float64) (MMPP2, error) {
	if len(samples) < 8 {
		return MMPP2{}, ErrInsufficientData
	}
	if gapThreshold <= 0 {
		return MMPP2{}, fmt.Errorf("analytic: gap threshold must be positive")
	}
	var small, large []float64
	var burstDurs []float64
	burstStart := samples[0].Time
	prev := samples[0].Time
	inBurst := false
	for _, s := range samples[1:] {
		if s.Time < prev {
			return MMPP2{}, fmt.Errorf("analytic: arrival samples out of order (%g after %g)", s.Time, prev)
		}
		gap := s.Time - prev
		if gap < gapThreshold {
			small = append(small, gap)
			inBurst = true
		} else {
			large = append(large, gap)
			if inBurst {
				burstDurs = append(burstDurs, prev-burstStart)
			}
			burstStart = s.Time
			inBurst = false
		}
		prev = s.Time
	}
	if inBurst && prev > burstStart {
		burstDurs = append(burstDurs, prev-burstStart)
	}
	if len(small) < 2 || len(large) < 2 || len(burstDurs) < 1 {
		return MMPP2{}, ErrInsufficientData
	}
	mSmall, mLarge := stats.Mean(small), stats.Mean(large)
	mBurst := stats.Mean(burstDurs)
	if mSmall <= 0 || mLarge <= 0 || mBurst <= 0 {
		return MMPP2{}, ErrInsufficientData
	}
	m := MMPP2{
		Lambda1: 1 / mSmall,
		P1:      1 / mBurst,
		Lambda2: 1 / mLarge,
		P2:      1 / mLarge,
	}
	return m, m.Validate()
}

// Sample draws interarrival-labelled packet arrivals from the MMPP for a
// duration of dur seconds, used by the queue simulator and in tests.
func (m MMPP2) Sample(rng *stats.RNG, dur float64) []ArrivalSample {
	var out []ArrivalSample
	t := 0.0
	state := 1
	if rng.Float64() >= m.Stationary()[0] {
		state = 2
	}
	for t < dur {
		var rate, sw float64
		if state == 1 {
			rate, sw = m.Lambda1, m.P1
		} else {
			rate, sw = m.Lambda2, m.P2
		}
		total := rate + sw
		t += rng.Exp(total)
		if t >= dur {
			break
		}
		if rng.Float64() < rate/total {
			out = append(out, ArrivalSample{Time: t, IFrame: state == 1})
		} else {
			state = 3 - state
		}
	}
	return out
}

// Package queuesim is a discrete-event simulator of the sender-side queue
// of Section 4.2: 2-MMPP packet arrivals into a single FIFO server whose
// service time is encryption + backoff + transmission (Eq. 3). It provides
// an independent ground truth for the matrix-geometric solver in
// internal/analytic — the two must agree within simulation noise, which
// the integration tests assert.
package queuesim

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/stats"
)

// Result summarises a simulation run.
type Result struct {
	Packets      int
	MeanWait     float64 // queueing delay before service
	MeanSojourn  float64 // wait + service
	MeanService  float64
	UtilBusy     float64 // fraction of time the server was busy
	WaitCI95     float64 // 95% CI half-width on MeanWait (batch means)
	P99Wait      float64 // 99th percentile of the queueing delay
	IFraction    float64 // realised fraction of I-frame packets
	EncryptedPct float64 // realised fraction of encrypted packets
}

// Options configures a run.
type Options struct {
	// Duration is the simulated time horizon in seconds.
	Duration float64
	// WarmupFraction of the horizon is discarded before statistics
	// accumulate (default 0.1).
	WarmupFraction float64
	// Seed drives all randomness.
	Seed uint64
	// ClassCorrelated selects how a packet's I/P class (and hence its
	// encryption/transmission time class) is chosen. The paper's analysis
	// (Eqs. 4, 8) treats the class as i.i.d. with probability p_I,
	// independent of the arrival phase; with ClassCorrelated=false the
	// simulator does the same, giving a tight validation of
	// analytic.SolveQueue. With ClassCorrelated=true the class follows
	// the actual MMPP state (I packets arrive in bursts with their longer
	// service back-to-back), the physically faithful behaviour of the testbed;
	// the difference between the two quantifies the independence
	// approximation baked into the paper's model
	// (BenchmarkAblationClassCorrelation).
	ClassCorrelated bool
}

// sampler draws the per-packet service components per the same parametric
// model the analysis uses: class-conditional Gaussian encryption and
// transmission times (truncated at zero) and geometric-exponential
// backoff.
type sampler struct {
	sp  analytic.ServiceParams
	rng *stats.RNG
	// Bresenham accumulators so fractional policies are spread evenly,
	// matching vcrypt.Selector.
	accI, accP float64
}

func (s *sampler) service(isIFrame bool) (total float64, encrypted bool) {
	enc := 0.0
	encI, encP := s.sp.EncI, s.sp.EncP
	if isIFrame {
		if bresenham(&s.accI, encI) {
			encrypted = true
			enc = positiveNorm(s.rng, s.sp.EncMeanI, s.sp.EncSigmaI)
		}
	} else {
		if bresenham(&s.accP, encP) {
			encrypted = true
			enc = positiveNorm(s.rng, s.sp.EncMeanP, s.sp.EncSigmaP)
		}
	}
	backoff := 0.0
	if s.sp.PS < 1 {
		k := s.rng.Geometric(s.sp.PS)
		for i := 0; i < k; i++ {
			backoff += s.rng.Exp(s.sp.LambdaB)
		}
	}
	var tx float64
	if isIFrame {
		tx = positiveNorm(s.rng, s.sp.TxMeanI, s.sp.TxSigmaI)
	} else {
		tx = positiveNorm(s.rng, s.sp.TxMeanP, s.sp.TxSigmaP)
	}
	return enc + backoff + tx, encrypted
}

func bresenham(acc *float64, frac float64) bool {
	if frac <= 0 {
		return false
	}
	if frac >= 1 {
		return true
	}
	*acc += frac
	if *acc >= 1 {
		*acc--
		return true
	}
	return false
}

func positiveNorm(rng *stats.RNG, mean, sigma float64) float64 {
	if sigma == 0 {
		return mean
	}
	for i := 0; i < 100; i++ {
		if v := rng.Norm(mean, sigma); v > 0 {
			return v
		}
	}
	return mean
}

// Run simulates the queue for the given arrival process and service
// parameters.
func Run(arrival analytic.MMPP2, service analytic.ServiceParams, opts Options) (Result, error) {
	if err := arrival.Validate(); err != nil {
		return Result{}, err
	}
	if err := service.Validate(); err != nil {
		return Result{}, err
	}
	if opts.Duration <= 0 {
		return Result{}, fmt.Errorf("queuesim: non-positive duration")
	}
	warm := opts.WarmupFraction
	if warm <= 0 {
		warm = 0.1
	}
	if warm >= 1 {
		return Result{}, fmt.Errorf("queuesim: warmup fraction %g out of [0,1)", warm)
	}
	rng := stats.NewRNG(opts.Seed)
	arrivals := arrival.Sample(rng, opts.Duration)
	smp := &sampler{sp: service, rng: rng.Split()}

	warmupEnd := warm * opts.Duration
	var serverFree float64
	var waits, sojourns []float64
	var busyTime, serviceSum float64
	var nI, nEnc, counted int
	for _, a := range arrivals {
		start := a.Time
		if serverFree > start {
			start = serverFree
		}
		class := a.IFrame
		if !opts.ClassCorrelated {
			class = rng.Bool(service.PI)
		}
		svc, encrypted := smp.service(class)
		depart := start + svc
		serverFree = depart
		busyTime += svc
		if a.Time < warmupEnd {
			continue
		}
		counted++
		if a.IFrame {
			nI++
		}
		if encrypted {
			nEnc++
		}
		serviceSum += svc
		waits = append(waits, start-a.Time)
		sojourns = append(sojourns, depart-a.Time)
	}
	if counted == 0 {
		return Result{}, fmt.Errorf("queuesim: no packets after warmup; extend Duration")
	}
	res := Result{
		Packets:      counted,
		MeanWait:     stats.Mean(waits),
		MeanSojourn:  stats.Mean(sojourns),
		MeanService:  serviceSum / float64(counted),
		UtilBusy:     busyTime / opts.Duration,
		IFraction:    float64(nI) / float64(counted),
		EncryptedPct: float64(nEnc) / float64(counted),
	}
	res.WaitCI95 = batchMeansCI(waits, 20)
	res.P99Wait = stats.Percentile(waits, 0.99)
	return res, nil
}

// batchMeansCI estimates a 95% confidence half-width for the mean of a
// positively correlated series using the method of batch means.
func batchMeansCI(xs []float64, batches int) float64 {
	if len(xs) < batches*2 {
		return 0
	}
	size := len(xs) / batches
	means := make([]float64, batches)
	for b := 0; b < batches; b++ {
		means[b] = stats.Mean(xs[b*size : (b+1)*size])
	}
	return stats.Summarize(means).CI95
}

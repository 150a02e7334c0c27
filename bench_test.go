// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (one benchmark per table/figure, wrapping the
// internal/experiments implementations), benchmarks the hot substrates,
// and runs the ablation studies DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks use reduced clip geometry so a full sweep
// completes in minutes; cmd/figures -full reproduces the paper-scale runs.
package repro_test

import (
	"sync"
	"testing"

	"repro/internal/analytic"
	"repro/internal/audio"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/queuesim"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// benchOpts is the reduced geometry shared by the per-figure benchmarks:
// every structural element of the paper's setup is retained (GOP 30/50,
// slow/fast motion, all levels, both devices) on a smaller canvas.
func benchOpts() experiments.Options {
	return experiments.Options{
		Width: 96, Height: 96, Frames: 150, Repetitions: 1, Seed: 1, Stations: 3,
	}
}

var (
	fixtureOnce sync.Once
	fixture     *experiments.Fixture
	fixtureErr  error
)

func benchFixture(b *testing.B) *experiments.Fixture {
	b.Helper()
	fixtureOnce.Do(func() {
		fixture, fixtureErr = experiments.NewFixture(benchOpts())
		if fixtureErr != nil {
			return
		}
		// Pre-build the workloads so figure benchmarks measure the
		// experiment, not the clip encoding.
		for _, m := range []video.MotionLevel{video.MotionLow, video.MotionMedium, video.MotionHigh} {
			for _, gop := range []int{30, 50} {
				if _, err := fixture.Workload(m, gop); err != nil {
					fixtureErr = err
					return
				}
			}
		}
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixture
}

func benchTable(b *testing.B, fn func(*experiments.Fixture) (*experiments.Table, error)) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := fn(f)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- One benchmark per table and figure of the evaluation section ---

func BenchmarkTable1Setup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.Table1(); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig2DistortionVsDistance(b *testing.B) { benchTable(b, experiments.Fig2) }

func BenchmarkFig4Distortion(b *testing.B) { benchTable(b, experiments.Fig4) }

func BenchmarkFig5MOS(b *testing.B) { benchTable(b, experiments.Fig5) }

func BenchmarkFig6Screenshots(b *testing.B) {
	f := benchFixture(b)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(f, dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7DelaySamsung(b *testing.B) { benchTable(b, experiments.Fig7) }

func BenchmarkFig8DelayHTC(b *testing.B) { benchTable(b, experiments.Fig8) }

func BenchmarkFig9FractionalP(b *testing.B) { benchTable(b, experiments.Fig9) }

func BenchmarkTable2MixedPolicy(b *testing.B) { benchTable(b, experiments.Table2) }

func BenchmarkFig10PowerSamsung(b *testing.B) { benchTable(b, experiments.Fig10) }

func BenchmarkFig11PowerHTC(b *testing.B) { benchTable(b, experiments.Fig11) }

func BenchmarkFig12HTTPDelaySamsung(b *testing.B) { benchTable(b, experiments.Fig12) }

func BenchmarkFig13HTTPDelayHTC(b *testing.B) { benchTable(b, experiments.Fig13) }

func BenchmarkFig14HTTPDistortion(b *testing.B) { benchTable(b, experiments.Fig14) }

func BenchmarkFig15HTTPMOS(b *testing.B) { benchTable(b, experiments.Fig15) }

// --- Substrate micro-benchmarks ---

func benchClip(b *testing.B, motion video.MotionLevel, frames int) []*video.Frame {
	b.Helper()
	return video.Generate(video.SceneConfig{W: 176, H: 144, Frames: frames, Motion: motion, Seed: 1})
}

func BenchmarkCodecEncode(b *testing.B) {
	clip := benchClip(b, video.MotionMedium, 30)
	cfg := codec.DefaultConfig(30)
	cfg.Width, cfg.Height = 176, 144
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.EncodeSequence(clip, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(clip)*b.N)/b.Elapsed().Seconds(), "frames/s")
}

func BenchmarkCodecDecode(b *testing.B) {
	clip := benchClip(b, video.MotionMedium, 30)
	cfg := codec.DefaultConfig(30)
	cfg.Width, cfg.Height = 176, 144
	encoded, err := codec.EncodeSequence(clip, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodeSequence(encoded, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(clip)*b.N)/b.Elapsed().Seconds(), "frames/s")
}

func benchCipher(b *testing.B, alg vcrypt.Algorithm) {
	key := make([]byte, alg.KeySize())
	c, err := vcrypt.NewCipher(alg, key)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1400)
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncryptPacket(uint64(i), payload)
	}
}

func BenchmarkCipherAES128(b *testing.B) { benchCipher(b, vcrypt.AES128) }

func BenchmarkCipherAES256(b *testing.B) { benchCipher(b, vcrypt.AES256) }

func BenchmarkCipher3DES(b *testing.B) { benchCipher(b, vcrypt.TripleDES) }

func BenchmarkSolveQueue(b *testing.B) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analytic.SolveQueue(arr, sp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistortionModel(b *testing.B) {
	m := analytic.DistortionModel{
		G: 30, PISuccess: 0.9, PPSuccess: 0.95,
		DMin: 50, DMax: 800,
		InterGOP:       stats.Polynomial{Coeffs: []float64{100, 200, -10}},
		MaxDistance:    4,
		BaseDistortion: 5,
		NoReferenceMSE: 2500,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ExpectedDistortion(10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueueSim(b *testing.B) {
	arr := analytic.MMPP2{P1: 300, P2: 15, Lambda1: 1500, Lambda2: 120}
	sp := analytic.ServiceParams{
		PI: arr.IFramePacketFraction(), TxMeanI: 1.6e-3, TxMeanP: 0.7e-3, PS: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queuesim.Run(arr, sp, queuesim.Options{Duration: 100, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeasureDistortion(b *testing.B) {
	clip := benchClip(b, video.MotionMedium, 72)
	cfg := codec.DefaultConfig(24)
	cfg.Width, cfg.Height = 176, 144
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MeasureDistortion(clip, cfg, 1400); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketize(b *testing.B) {
	clip := benchClip(b, video.MotionMedium, 2)
	cfg := codec.DefaultConfig(30)
	cfg.Width, cfg.Height = 176, 144
	encoded, err := codec.EncodeSequence(clip, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Packetize(encoded[0], 1400); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation studies (DESIGN.md) ---

// BenchmarkAblationDistortionDP compares the reference-distance dynamic
// program against a Monte-Carlo evaluation of the same GOP chain: the DP
// is exact and orders of magnitude faster.
func BenchmarkAblationDistortionDP(b *testing.B) {
	m := analytic.DistortionModel{
		G: 30, PISuccess: 0.9, PPSuccess: 0.95,
		DMin: 50, DMax: 800,
		InterGOP:       stats.Polynomial{Coeffs: []float64{100, 200, -10}},
		MaxDistance:    4,
		BaseDistortion: 5,
		NoReferenceMSE: 2500,
	}
	const numGOPs = 10
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.ExpectedDistortion(numGOPs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("montecarlo", func(b *testing.B) {
		want, err := m.ExpectedDistortion(numGOPs)
		if err != nil {
			b.Fatal(err)
		}
		rng := stats.NewRNG(1)
		var got float64
		for i := 0; i < b.N; i++ {
			got = monteCarloDistortion(m, numGOPs, 2000, rng)
		}
		drift := (got - want) / want
		b.ReportMetric(drift*100, "%driftMC")
	})
}

// monteCarloDistortion simulates the GOP chain of Section 4.3.3 directly.
func monteCarloDistortion(m analytic.DistortionModel, numGOPs, trials int, rng *stats.RNG) float64 {
	var total float64
	for t := 0; t < trials; t++ {
		noRef := true
		dist := 0
		for g := 0; g < numGOPs; g++ {
			if rng.Float64() < m.PISuccess {
				noRef = false
				dist = 0
				// Intra: find first lost P.
				lost := -1
				for i := 1; i <= m.G-1; i++ {
					if rng.Float64() >= m.PPSuccess {
						lost = i
						break
					}
				}
				if lost < 0 {
					total += m.BaseDistortion
				} else {
					d := analytic.IntraGOPDistortion(lost, m.G, m.DMin, m.DMax)
					if d < m.BaseDistortion {
						d = m.BaseDistortion
					}
					total += d
				}
				continue
			}
			if noRef {
				total += m.NoReferenceMSE
				continue
			}
			dist++
			dd := dist
			if dd > m.MaxDistance {
				dd = m.MaxDistance
			}
			v := m.InterGOP.Eval(float64(dd))
			if v < m.BaseDistortion {
				v = m.BaseDistortion
			}
			total += v
		}
	}
	return total / float64(trials*numGOPs)
}

// BenchmarkAblationPerPacketIV compares per-packet OFB (the paper's
// error-containment design) against a single stream-wide OFB pass:
// the throughput cost of re-keying the stream per packet.
func BenchmarkAblationPerPacketIV(b *testing.B) {
	key := make([]byte, 32)
	c, err := vcrypt.NewCipher(vcrypt.AES256, key)
	if err != nil {
		b.Fatal(err)
	}
	const pktSize = 1400
	const packets = 64
	payload := make([]byte, pktSize*packets)
	b.Run("per-packet", func(b *testing.B) {
		b.SetBytes(pktSize * packets)
		for i := 0; i < b.N; i++ {
			for p := 0; p < packets; p++ {
				c.EncryptPacket(uint64(p), payload[p*pktSize:(p+1)*pktSize])
			}
		}
	})
	b.Run("stream-wide", func(b *testing.B) {
		b.SetBytes(pktSize * packets)
		for i := 0; i < b.N; i++ {
			c.EncryptPacket(0, payload)
		}
	})
}

// BenchmarkAblationMotionSearch compares diamond search (with predictors)
// against exhaustive search: compression parity at a fraction of the cost.
func BenchmarkAblationMotionSearch(b *testing.B) {
	clip := benchClip(b, video.MotionHigh, 12)
	for _, full := range []bool{false, true} {
		name := "diamond"
		if full {
			name = "full"
		}
		full := full
		b.Run(name, func(b *testing.B) {
			cfg := codec.DefaultConfig(12)
			cfg.Width, cfg.Height = 176, 144
			cfg.FullSearch = full
			var bytes int
			for i := 0; i < b.N; i++ {
				encoded, err := codec.EncodeSequence(clip, cfg)
				if err != nil {
					b.Fatal(err)
				}
				bytes = 0
				for _, ef := range encoded {
					bytes += ef.Size()
				}
			}
			b.ReportMetric(float64(bytes), "clipbytes")
		})
	}
}

// BenchmarkAblationClassCorrelation quantifies the independence
// approximation in the paper's service model (Eqs. 4/8): the queue
// simulator with the I/P service class following the actual MMPP state
// versus drawn i.i.d.
func BenchmarkAblationClassCorrelation(b *testing.B) {
	arr := analytic.MMPP2{P1: 300, P2: 15, Lambda1: 1500, Lambda2: 120}
	sp := analytic.ServiceParams{
		PI:   arr.IFramePacketFraction(),
		EncI: 1, EncP: 1,
		EncMeanI: 0.8e-3, EncMeanP: 0.4e-3,
		TxMeanI: 1.6e-3, TxMeanP: 0.7e-3,
		PS: 1,
	}
	var iid, corr float64
	for _, correlated := range []bool{false, true} {
		name := "iid"
		if correlated {
			name = "correlated"
		}
		correlated := correlated
		b.Run(name, func(b *testing.B) {
			var res queuesim.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = queuesim.Run(arr, sp, queuesim.Options{
					Duration: 300, Seed: uint64(i + 1), ClassCorrelated: correlated,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.MeanWait*1e3, "EW-ms")
			if correlated {
				corr = res.MeanWait
			} else {
				iid = res.MeanWait
			}
		})
	}
	if iid > 0 && corr > 0 {
		b.Logf("class correlation raises E[W] by %.0f%%", (corr/iid-1)*100)
	}
}

// BenchmarkAblationUniformQ compares the per-class eavesdropper model
// (default, matches the experiments) against the literal uniform-q form of
// Section 4.3 across the four levels.
func BenchmarkAblationUniformQ(b *testing.B) {
	f := benchFixture(b)
	w, err := f.Workload(video.MotionLow, 30)
	if err != nil {
		b.Fatal(err)
	}
	cal, err := f.Calibrate(w, energy.SamsungGalaxySII())
	if err != nil {
		b.Fatal(err)
	}
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}
	b.ResetTimer()
	var perClass, uniform core.Prediction
	for i := 0; i < b.N; i++ {
		cal.UniformQEavesdropper = false
		perClass, err = cal.Predict(pol)
		if err != nil {
			b.Fatal(err)
		}
		cal.UniformQEavesdropper = true
		uniform, err = cal.Predict(pol)
		if err != nil {
			b.Fatal(err)
		}
	}
	cal.UniformQEavesdropper = false
	b.ReportMetric(perClass.EavesdropperPSNR, "perClass-dB")
	b.ReportMetric(uniform.EavesdropperPSNR, "uniformQ-dB")
}

// transportRunUDP aliases the transport entry point for the ablations.
var transportRunUDP = transport.RunUDP

func benchName(prefix string, v int) string {
	return prefix + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationBFrames compares the paper's IPP...P structure against
// the optional IBBP structure (Section 2): bits spent and encode cost.
func BenchmarkAblationBFrames(b *testing.B) {
	clip := benchClip(b, video.MotionMedium, 24)
	for _, nb := range []int{0, 2} {
		nb := nb
		b.Run(benchName("B", nb), func(b *testing.B) {
			cfg := codec.DefaultConfig(24)
			cfg.Width, cfg.Height = 176, 144
			cfg.BFrames = nb
			var bytes int
			for i := 0; i < b.N; i++ {
				encoded, err := codec.EncodeSequenceB(clip, cfg)
				if err != nil {
					b.Fatal(err)
				}
				bytes = 0
				for _, ef := range encoded {
					bytes += ef.Size()
				}
			}
			b.ReportMetric(float64(bytes), "clipbytes")
		})
	}
}

// BenchmarkAblationHeaderOnly compares full-payload encryption against the
// header-only selective variant: identical confidentiality (the slice
// header is unreadable), far less cipher work.
func BenchmarkAblationHeaderOnly(b *testing.B) {
	f := benchFixture(b)
	w, err := f.Workload(video.MotionHigh, 30)
	if err != nil {
		b.Fatal(err)
	}
	for _, hdr := range []int{0, 64} {
		hdr := hdr
		name := "full-payload"
		if hdr > 0 {
			name = "header-only"
		}
		b.Run(name, func(b *testing.B) {
			pol := vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.TripleDES, HeaderOnlyBytes: hdr}
			var last float64
			for i := 0; i < b.N; i++ {
				s := f.Session(w, pol, energy.SamsungGalaxySII(), uint64(i+1))
				res, err := transportRunUDP(s, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanSojourn
			}
			b.ReportMetric(last*1e3, "sojourn-ms")
		})
	}
}

// BenchmarkAblationPadding quantifies the pad-to-MTU countermeasure's
// delay cost (internal/traffic closes the size side channel with it).
func BenchmarkAblationPadding(b *testing.B) {
	f := benchFixture(b)
	w, err := f.Workload(video.MotionLow, 30)
	if err != nil {
		b.Fatal(err)
	}
	for _, pad := range []bool{false, true} {
		pad := pad
		name := "plain"
		if pad {
			name = "padded"
		}
		b.Run(name, func(b *testing.B) {
			pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}
			var last float64
			for i := 0; i < b.N; i++ {
				s := f.Session(w, pol, energy.SamsungGalaxySII(), uint64(i+1))
				s.PadToMTU = pad
				res, err := transportRunUDP(s, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanSojourn
			}
			b.ReportMetric(last*1e3, "sojourn-ms")
		})
	}
}

// BenchmarkAudioCodec measures the ADPCM substrate.
func BenchmarkAudioCodec(b *testing.B) {
	track := audio.Generate(8000, 10, 1)
	b.SetBytes(int64(len(track.Samples) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames, err := audio.Encode(track)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := audio.Decode(frames, track.SampleRate); err != nil {
			b.Fatal(err)
		}
	}
}

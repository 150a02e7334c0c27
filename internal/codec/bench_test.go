package codec

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/video"
)

func benchBlock() *[64]float64 {
	rng := rand.New(rand.NewSource(5))
	var b [64]float64
	for i := range b {
		b[i] = rng.Float64()*255 - 128
	}
	return &b
}

func BenchmarkFDCT8(b *testing.B) {
	in := benchBlock()
	var out [64]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fdct8(in, &out)
	}
}

func BenchmarkIDCT8(b *testing.B) {
	in := benchBlock()
	var out [64]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idct8(in, &out)
	}
}

func benchFrames(b *testing.B, n int) []*video.Frame {
	b.Helper()
	return video.Generate(video.SceneConfig{
		W: video.CIFWidth, H: video.CIFHeight, Frames: n,
		Motion: video.MotionMedium, Seed: 9,
	})
}

func BenchmarkMotionSearch(b *testing.B) {
	clip := benchFrames(b, 2)
	cfg := DefaultConfig(30)
	src, ref := clip[1], clip[0]
	starts := [][2]int{{1, 0}, {0, 1}}
	cols, rows := cfg.MBCols(), cfg.MBRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb := i % (cols * rows)
		motionSearch(src, ref, (mb%cols)*mbSize, (mb/cols)*mbSize, cfg, starts)
	}
}

// BenchmarkEncodeMetricsOff/On measure the instrumentation tax on the
// hottest path (P-frame encode). Off is the shipping default — the only
// cost is one atomic load per row batch; On adds the row/frame counter
// and histogram updates. scripts/bench.sh compares the two and fails
// the PR gate if On costs more than a couple of percent.
func BenchmarkEncodeMetricsOff(b *testing.B) { benchEncodeMetrics(b, false) }
func BenchmarkEncodeMetricsOn(b *testing.B)  { benchEncodeMetrics(b, true) }

func benchEncodeMetrics(b *testing.B, enabled bool) {
	clip := benchFrames(b, 2)
	cfg := DefaultConfig(30)
	cfg.Workers = 1 // serial: the per-row accounting dominates least here, making the tax easiest to see
	enc, err := NewEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := enc.Encode(clip[0]); err != nil {
		b.Fatal(err)
	}
	obs.SetEnabled(enabled)
	defer obs.SetEnabled(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.encodeAs(clip[1], PFrame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeFrameParallel times one P-frame through the row
// pipeline at the configured worker count; the serial variant is the
// Workers=1 baseline for the same frame.
func BenchmarkEncodeFrameParallel(b *testing.B) {
	par := runtime.NumCPU()
	if par < 2 {
		// Still exercise the wavefront machinery on single-CPU hosts.
		par = 2
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"workers", par}} {
		b.Run(bc.name, func(b *testing.B) {
			clip := benchFrames(b, 2)
			cfg := DefaultConfig(30)
			cfg.Workers = bc.workers
			enc, err := NewEncoder(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := enc.Encode(clip[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enc.encodeAs(clip[1], PFrame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuantiseBlock times the forward DCT and quantisation of one
// 8x8 block, the numeric phase of every macroblock row. It cycles over
// 256 random blocks: one block repeated would let the branch predictor
// learn its coefficient signs, which real content never allows.
func BenchmarkQuantiseBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	blocks := make([][64]float64, 256)
	for i := range blocks {
		for j := range blocks[i] {
			blocks[i][j] = rng.Float64()*255 - 128
		}
	}
	var quant [64]int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantiseBlock(&blocks[i%len(blocks)], 8, &quant)
	}
}

// BenchmarkEncodeSequence times a two-GOP CIF clip through
// EncodeSequence; ns/op divided by 60 is the wall time per frame.
func BenchmarkEncodeSequence(b *testing.B) {
	clip := benchFrames(b, 60)
	cfg := DefaultConfig(30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSequence(clip, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

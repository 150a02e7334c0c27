package video

import (
	"bytes"
	"math"
	"testing"
)

func TestNewFrameNeutralChroma(t *testing.T) {
	f := NewFrame(16, 16)
	if len(f.Y) != 256 || len(f.Cb) != 64 || len(f.Cr) != 64 {
		t.Fatalf("plane sizes wrong: %d %d %d", len(f.Y), len(f.Cb), len(f.Cr))
	}
	if f.Cb[0] != 128 || f.Cr[63] != 128 {
		t.Fatal("chroma not neutral")
	}
}

func TestNewFramePanicsOnOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd dimensions")
		}
	}()
	NewFrame(15, 16)
}

func TestMSEAndPSNR(t *testing.T) {
	a := NewFrame(8, 8)
	b := NewFrame(8, 8)
	if MSE(a, b) != 0 {
		t.Fatal("identical frames must have zero MSE")
	}
	if !math.IsInf(PSNR(a, b), 1) {
		t.Fatal("identical frames must have infinite PSNR")
	}
	for i := range b.Y {
		b.Y[i] = 10
	}
	if got := MSE(a, b); got != 100 {
		t.Fatalf("MSE = %v want 100", got)
	}
	want := 20 * math.Log10(255.0/10)
	if got := PSNR(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PSNR = %v want %v", got, want)
	}
}

func TestSequencePSNRAggregatesMSE(t *testing.T) {
	a := []*Frame{NewFrame(8, 8), NewFrame(8, 8)}
	b := []*Frame{NewFrame(8, 8), NewFrame(8, 8)}
	for i := range b[1].Y {
		b[1].Y[i] = 20 // MSE 400 on one of two frames -> mean 200
	}
	if got := SequenceMSE(a, b); got != 200 {
		t.Fatalf("sequence MSE = %v want 200", got)
	}
	want := 20 * math.Log10(255/math.Sqrt(200))
	if got := SequencePSNR(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("sequence PSNR = %v", got)
	}
}

func TestLumaAtClamps(t *testing.T) {
	f := NewFrame(4, 4)
	f.Y[0] = 7
	f.Y[15] = 9
	if f.LumaAt(-3, -3) != 7 || f.LumaAt(99, 99) != 9 {
		t.Fatal("edge clamping broken")
	}
}

func TestYUVRoundTrip(t *testing.T) {
	f := Generate(SceneConfig{W: 32, H: 32, Frames: 1, Motion: MotionMedium, Seed: 5})[0]
	var buf bytes.Buffer
	if err := f.WriteYUV(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadYUV(&buf, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Y, g.Y) || !bytes.Equal(f.Cb, g.Cb) || !bytes.Equal(f.Cr, g.Cr) {
		t.Fatal("YUV round trip mismatch")
	}
}

func TestWritePGMHeader(t *testing.T) {
	f := NewFrame(6, 4)
	var buf bytes.Buffer
	if err := f.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	want := "P5\n6 4\n255\n"
	if !bytes.HasPrefix(buf.Bytes(), []byte(want)) {
		t.Fatalf("PGM header = %q", buf.Bytes()[:len(want)])
	}
	if buf.Len() != len(want)+24 {
		t.Fatalf("PGM size = %d", buf.Len())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SceneConfig{W: 64, H: 64, Frames: 5, Motion: MotionHigh, Seed: 3}
	a := Generate(cfg)
	b := Generate(cfg)
	for i := range a {
		if MSE(a[i], b[i]) != 0 {
			t.Fatalf("frame %d differs across identical seeds", i)
		}
	}
	c := Generate(SceneConfig{W: 64, H: 64, Frames: 5, Motion: MotionHigh, Seed: 4})
	if MSE(a[2], c[2]) == 0 {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateMotionClassesSeparate(t *testing.T) {
	low := Generate(SceneConfig{W: 128, H: 96, Frames: 30, Motion: MotionLow, Seed: 1})
	med := Generate(SceneConfig{W: 128, H: 96, Frames: 30, Motion: MotionMedium, Seed: 1})
	high := Generate(SceneConfig{W: 128, H: 96, Frames: 30, Motion: MotionHigh, Seed: 1})
	sl := SequenceMotionScore(low)
	sm := SequenceMotionScore(med)
	sh := SequenceMotionScore(high)
	if !(sl < sm && sm < sh) {
		t.Fatalf("motion scores not ordered: %v %v %v", sl, sm, sh)
	}
	if AnalyzeMotion(low) != MotionLow {
		t.Fatalf("low clip classified as %v (score %v)", AnalyzeMotion(low), sl)
	}
	if AnalyzeMotion(high) != MotionHigh {
		t.Fatalf("high clip classified as %v (score %v)", AnalyzeMotion(high), sh)
	}
}

func TestMotionScoreIdenticalFrames(t *testing.T) {
	f := NewFrame(16, 16)
	if MotionScore(f, f) != 0 {
		t.Fatal("identical frames must score 0")
	}
	if SequenceMotionScore([]*Frame{f}) != 0 {
		t.Fatal("single frame must score 0")
	}
}

func TestClassifyMotionBoundaries(t *testing.T) {
	if ClassifyMotion(0.01) != MotionLow ||
		ClassifyMotion(0.1) != MotionMedium ||
		ClassifyMotion(0.6) != MotionHigh {
		t.Fatal("classification boundaries wrong")
	}
}

func TestMotionLevelString(t *testing.T) {
	if MotionLow.String() != "low" || MotionHigh.String() != "high" ||
		MotionMedium.String() != "medium" || MotionLevel(9).String() != "unknown" {
		t.Fatal("String() wrong")
	}
}

func TestGenerateDefaultsToCIF(t *testing.T) {
	frames := Generate(SceneConfig{Frames: 1, Motion: MotionLow, Seed: 1})
	if frames[0].W != CIFWidth || frames[0].H != CIFHeight {
		t.Fatalf("default size %dx%d", frames[0].W, frames[0].H)
	}
}

// BenchmarkGenerate times a 30-frame CIF medium-motion clip.
func BenchmarkGenerate(b *testing.B) {
	cfg := SceneConfig{W: CIFWidth, H: CIFHeight, Frames: 30, Motion: MotionMedium, Seed: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(cfg)
	}
}

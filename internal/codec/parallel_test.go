package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/video"
)

// naiveFDCT8 and naiveIDCT8 are the direct O(N^3) inner-product
// transforms the AAN butterflies replaced; they stay here as the
// reference the fast kernels are validated against.
func naiveDCTCos() *[8][8]float64 {
	var c [8][8]float64
	for k := 0; k < 8; k++ {
		for n := 0; n < 8; n++ {
			c[k][n] = math.Cos(math.Pi * float64(k) * (2*float64(n) + 1) / 16)
		}
	}
	return &c
}

func naiveFDCT8(in, out *[64]float64) {
	c := naiveDCTCos()
	norm := func(k int) float64 {
		if k == 0 {
			return math.Sqrt(1.0 / 8)
		}
		return math.Sqrt(2.0 / 8)
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var sum float64
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					sum += in[y*8+x] * c[u][y] * c[v][x]
				}
			}
			out[u*8+v] = norm(u) * norm(v) * sum
		}
	}
}

func naiveIDCT8(in, out *[64]float64) {
	c := naiveDCTCos()
	norm := func(k int) float64 {
		if k == 0 {
			return math.Sqrt(1.0 / 8)
		}
		return math.Sqrt(2.0 / 8)
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			var sum float64
			for u := 0; u < 8; u++ {
				for v := 0; v < 8; v++ {
					sum += norm(u) * norm(v) * in[u*8+v] * c[u][y] * c[v][x]
				}
			}
			out[y*8+x] = sum
		}
	}
}

// TestDCTMatchesNaiveReference pins the AAN butterflies to the
// inner-product definition of the orthonormal 2-D DCT-II.
func TestDCTMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var in, fast, ref [64]float64
		for i := range in {
			in[i] = rng.Float64()*255 - 128
		}
		fdct8(&in, &fast)
		naiveFDCT8(&in, &ref)
		for i := range fast {
			if math.Abs(fast[i]-ref[i]) > 1e-9 {
				t.Fatalf("trial %d: fdct8[%d] = %g, reference %g", trial, i, fast[i], ref[i])
			}
		}
		idct8(&in, &fast)
		naiveIDCT8(&in, &ref)
		for i := range fast {
			if math.Abs(fast[i]-ref[i]) > 1e-9 {
				t.Fatalf("trial %d: idct8[%d] = %g, reference %g", trial, i, fast[i], ref[i])
			}
		}
	}
}

func TestFrameTypeString(t *testing.T) {
	cases := []struct {
		t    FrameType
		want string
	}{
		{IFrame, "I"},
		{PFrame, "P"},
		{BFrame, "B"},
		{FrameType(9), "FrameType(9)"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("FrameType(%d).String() = %q, want %q", uint8(c.t), got, c.want)
		}
	}
}

// encodedEqual asserts two streams are bit-identical, macroblock by
// macroblock.
func encodedEqual(t *testing.T, a, b []*EncodedFrame, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: frame count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Type != b[i].Type || a[i].Number != b[i].Number {
			t.Fatalf("%s: frame %d header mismatch", label, i)
		}
		if len(a[i].MBData) != len(b[i].MBData) {
			t.Fatalf("%s: frame %d MB count mismatch", label, i)
		}
		for j := range a[i].MBData {
			if !bytes.Equal(a[i].MBData[j], b[i].MBData[j]) {
				t.Fatalf("%s: frame %d MB %d differs (%x vs %x)", label, i, j, a[i].MBData[j], b[i].MBData[j])
			}
		}
	}
}

// TestParallelEncodeBitIdentical is the tentpole determinism guarantee:
// any worker count yields the serial bitstream, across I/P structure,
// motion levels, and the full-search estimator. The oracle is a plain
// per-frame Encoder loop, since EncodeSequence itself encodes GOPs
// concurrently.
func TestParallelEncodeBitIdentical(t *testing.T) {
	for _, motion := range []video.MotionLevel{video.MotionLow, video.MotionHigh} {
		for _, full := range []bool{false, true} {
			clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 12, Motion: motion, Seed: 11})
			cfg := smallConfig(5)
			cfg.FullSearch = full
			serial := serialEncode(t, clip, cfg)
			for _, workers := range []int{2, 3, 4, 16} {
				pcfg := cfg
				pcfg.Workers = workers
				par, err := EncodeSequence(clip, pcfg)
				if err != nil {
					t.Fatal(err)
				}
				encodedEqual(t, serial, par, fmt.Sprintf("motion=%v full=%v workers=%d", motion, full, workers))
			}
		}
	}
}

// TestParallelEncodeBitIdenticalB covers the B-frame sequence encoder.
func TestParallelEncodeBitIdenticalB(t *testing.T) {
	clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 14, Motion: video.MotionMedium, Seed: 19})
	cfg := smallConfig(6)
	cfg.BFrames = 1
	serial, err := EncodeSequenceB(clip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Workers = 4
	par, err := EncodeSequenceB(clip, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	encodedEqual(t, serial, par, "bframes workers=4")
}

// TestParallelDecodeIdentical checks the decoder row split, including
// concealment of damaged and missing macroblocks and leading loss.
func TestParallelDecodeIdentical(t *testing.T) {
	clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 10, Motion: video.MotionMedium, Seed: 23})
	cfg := smallConfig(5)
	enc, err := EncodeSequence(clip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the stream: drop the first frame entirely (leading loss),
	// null some chunks, corrupt another.
	enc[0] = nil
	enc[3].MBData[7] = nil
	enc[5].MBData[2] = []byte{0xff, 0x00, 0x13}
	serial, err := DecodeSequence(enc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Workers = 4
	par, err := DecodeSequence(enc, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("decoded %d vs %d frames", len(serial), len(par))
	}
	for i := range serial {
		if video.MSE(serial[i], par[i]) != 0 {
			t.Fatalf("frame %d: parallel decode differs from serial", i)
		}
	}
}

// TestParallelEncoderStateMatchesSerial runs two encoders frame by frame
// and checks the stateful pieces (reference chain, MV predictor seeding)
// stay in lockstep even when the parallel one is reset mid-stream.
func TestParallelEncoderStateMatchesSerial(t *testing.T) {
	clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 8, Motion: video.MotionHigh, Seed: 31})
	cfg := smallConfig(4)
	pcfg := cfg
	pcfg.Workers = 3
	es, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewEncoder(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i, f := range clip {
			a, err := es.Encode(f)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ep.Encode(f)
			if err != nil {
				t.Fatal(err)
			}
			encodedEqual(t, []*EncodedFrame{a}, []*EncodedFrame{b}, fmt.Sprintf("pass %d frame %d", pass, i))
		}
		es.Reset()
		ep.Reset()
	}
}

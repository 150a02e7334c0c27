package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"strings"
	"testing"

	"repro/internal/video"
)

// serialEncode is the oracle for EncodeSequence: one Encoder fed the
// whole clip frame by frame.
func serialEncode(t *testing.T, frames []*video.Frame, cfg Config) []*EncodedFrame {
	t.Helper()
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*EncodedFrame, len(frames))
	for i, f := range frames {
		if out[i], err = enc.Encode(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	return out
}

// TestEncodeSequenceMatchesSerialEncoder pins the GOP-parallel
// EncodeSequence to the serial encoder across clip lengths that end
// inside, on and just past a GOP boundary, GOP sizes from all-intra to
// longer than the clip, and both row settings.
func TestEncodeSequenceMatchesSerialEncoder(t *testing.T) {
	clip := video.Generate(video.SceneConfig{W: 64, H: 48, Frames: 95, Motion: video.MotionHigh, Seed: 41})
	for _, n := range []int{1, 29, 30, 31, 95} {
		for _, gop := range []int{1, 7, 30, 400} {
			cfg := smallConfig(gop)
			cfg.Width, cfg.Height = 64, 48
			want := serialEncode(t, clip[:n], cfg)
			for _, workers := range []int{0, 2} {
				cfg.Workers = workers
				got, err := EncodeSequence(clip[:n], cfg)
				if err != nil {
					t.Fatal(err)
				}
				encodedEqual(t, want, got, fmt.Sprintf("frames=%d gop=%d workers=%d", n, gop, workers))
			}
		}
	}
}

// TestEncodeSequenceLowestError checks that, with bad frames in two
// GOPs, the error names the earlier one, as a serial encode would.
func TestEncodeSequenceLowestError(t *testing.T) {
	clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 40, Motion: video.MotionLow, Seed: 3})
	clip[33] = video.NewFrame(32, 32)
	clip[12] = video.NewFrame(32, 32)
	_, err := EncodeSequence(clip, smallConfig(10))
	if err == nil || !strings.HasPrefix(err.Error(), "frame 12:") {
		t.Fatalf("err = %v, want the frame 12 failure", err)
	}
	if out, err := EncodeSequence(nil, smallConfig(10)); err != nil || len(out) != 0 {
		t.Fatalf("empty clip: %v, %d frames", err, len(out))
	}
}

func hashFrames(h hash.Hash, frames []*video.Frame) {
	for _, f := range frames {
		h.Write(f.Y)
		h.Write(f.Cb)
		h.Write(f.Cr)
	}
}

func hashEncoded(h hash.Hash, frames []*EncodedFrame) {
	var buf [binary.MaxVarintLen64]byte
	for _, ef := range frames {
		h.Write(buf[:binary.PutUvarint(buf[:], uint64(ef.Number))])
		h.Write([]byte{byte(ef.Type)})
		for _, mb := range ef.MBData {
			h.Write(buf[:binary.PutUvarint(buf[:], uint64(len(mb)))])
			h.Write(mb)
		}
	}
}

// TestBenchClipGolden pins the bytes of the benchmark's clip (scene 63,
// 300 CIF frames, GOP 30): the SHA-256 of every raw plane from
// video.Generate and of every encoded frame from EncodeSequence. The
// hashes are amd64's; targets that fuse multiply-adds round differently.
func TestBenchClipGolden(t *testing.T) {
	const (
		wantRaw     = "68a3592c2deaae76d54808aeab01a36dd927cdf5c759bc9452002b7cd29be0d3"
		wantEncoded = "68a3469de96666fa49989c3274f4f20fa1fda6d4a02d32c4b05be2b3bf8b4ff0"
	)
	if testing.Short() || raceEnabled {
		t.Skip("encodes 300 CIF frames; TestEncodeSequenceMatchesSerialEncoder covers the concurrency under -race")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes pinned on amd64")
	}
	raw := video.Generate(video.DefaultScene(video.MotionMedium, 63))
	h := sha256.New()
	hashFrames(h, raw)
	if got := hex.EncodeToString(h.Sum(nil)); got != wantRaw {
		t.Errorf("video.Generate SHA-256 = %s, want %s", got, wantRaw)
	}
	enc, err := EncodeSequence(raw, DefaultConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	h.Reset()
	hashEncoded(h, enc)
	if got := hex.EncodeToString(h.Sum(nil)); got != wantEncoded {
		t.Errorf("EncodeSequence SHA-256 = %s, want %s", got, wantEncoded)
	}
}

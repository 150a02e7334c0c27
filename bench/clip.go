package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/codec"
	"repro/internal/stats"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

const (
	fps = 30
	gop = 30
	mtu = 1400
)

// geometry is the clip shape. Every workload uses the paper's clip
// shape: 300 CIF frames, GOP 30.
type geometry struct{ width, height, frames int }

var cif = geometry{video.CIFWidth, video.CIFHeight, 300}

// params is one workload run.
type params struct {
	seed    uint64
	seconds float64 // length of the timed window
	out     string  // directory for the clip containers
	trace   bool    // follow the timed window with the traced replay
	geom    geometry
}

// matchedScenes are medium-motion scene seeds whose 300-frame CIF
// encodings all fall within ±1.7% of 0.683 MB (1045–1069 packets at MTU
// 1400). Scene seeds at large span 0.54–0.94 MB, and latency and CPU per
// MB follow clip size, so a benchmark seed picking an arbitrary scene
// would measure the seed, not the code. The seed picks one of these
// scenes and drives everything else (keys, schedules, samples) freely.
var matchedScenes = []uint64{63, 35, 36, 14, 48, 27, 33, 58, 60, 25, 29, 45}

// clip is the seed's encoded clip, also written as a container file for
// the server process.
type clip struct {
	cfg       codec.Config
	frames    []*codec.EncodedFrame
	path      string
	encodeNs  float64 // encode time per frame
	packetsAt []int   // packets per frame at mtu
}

// makeClip generates, encodes and writes the seed's clip.
func makeClip(p params, name string) (*clip, error) {
	scene := matchedScenes[p.seed%uint64(len(matchedScenes))]
	sc := video.DefaultScene(video.MotionMedium, scene)
	sc.W, sc.H, sc.Frames = p.geom.width, p.geom.height, p.geom.frames
	raw := video.Generate(sc)
	cfg := codec.DefaultConfig(gop)
	cfg.Width, cfg.Height = p.geom.width, p.geom.height
	t0 := time.Now()
	frames, err := codec.EncodeSequence(raw, cfg)
	if err != nil {
		return nil, err
	}
	c := &clip{cfg: cfg, frames: frames, path: filepath.Join(p.out, name+".tvid")}
	c.encodeNs = float64(time.Since(t0).Nanoseconds()) / float64(len(frames))
	if c.packetsAt, err = packetCounts(frames); err != nil {
		return nil, err
	}
	f, err := os.Create(c.path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	err = codec.WriteContainer(w, cfg, frames)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("write clip: %w", err)
	}
	return c, nil
}

// payloadBytes is the clip's video payload, the base of every "per MB".
func (c *clip) payloadBytes() int { return framesBytes(c.frames) }

func (c *clip) packets() int {
	n := 0
	for _, k := range c.packetsAt {
		n += k
	}
	return n
}

func framesBytes(frames []*codec.EncodedFrame) int {
	n := 0
	for _, f := range frames {
		n += f.Size()
	}
	return n
}

// packetCounts returns each frame's packet count at mtu.
func packetCounts(frames []*codec.EncodedFrame) ([]int, error) {
	out := make([]int, len(frames))
	for i, ef := range frames {
		pkts, err := codec.Packetize(ef, mtu)
		if err != nil {
			return nil, err
		}
		out[i] = len(pkts)
	}
	return out, nil
}

// loop renumbers shallow copies of the clip into an n-frame stream. The
// clip length is a whole number of GOPs, so every pass starts on an
// I-frame.
func loop(frames []*codec.EncodedFrame, n int) []*codec.EncodedFrame {
	out := make([]*codec.EncodedFrame, n)
	for i := range out {
		f := *frames[i%len(frames)]
		f.Number = i
		out[i] = &f
	}
	return out
}

// keyFor derives the workload's key bytes from the seed.
func keyFor(seed uint64, alg vcrypt.Algorithm) []byte {
	rng := stats.NewRNG(seed ^ 0x6b6579)
	key := make([]byte, alg.KeySize())
	for i := range key {
		key[i] = byte(rng.Uint64())
	}
	return key
}

// badFrames counts the frames of got that are not byte-identical to
// want (a missing frame counts when the other side has it).
func badFrames(got, want []*codec.EncodedFrame) int {
	bad := 0
	for i := range want {
		if i >= len(got) || !sameFrame(got[i], want[i]) {
			bad++
		}
	}
	return bad
}

func sameFrame(a, b *codec.EncodedFrame) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Number != b.Number || a.Type != b.Type || len(a.MBData) != len(b.MBData) {
		return false
	}
	for i := range a.MBData {
		if !bytes.Equal(a.MBData[i], b.MBData[i]) {
			return false
		}
	}
	return true
}

// plainView is what an eavesdropper can reassemble: the frames rebuilt
// from only the packets the policy leaves unmarked.
func plainView(frames []*codec.EncodedFrame, cfg codec.Config, pol vcrypt.Policy) ([]*codec.EncodedFrame, error) {
	sel, err := vcrypt.NewSelector(pol)
	if err != nil {
		return nil, err
	}
	asm, err := codec.NewReassembler(cfg)
	if err != nil {
		return nil, err
	}
	for _, ef := range frames {
		pkts, err := codec.Packetize(ef, mtu)
		if err != nil {
			return nil, err
		}
		for _, p := range pkts {
			if !sel.ShouldEncrypt(p.IsIFrame()) {
				if err := asm.Add(p.Payload); err != nil {
					return nil, err
				}
			}
		}
	}
	return asm.Frames(len(frames)), nil
}

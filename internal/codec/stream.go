package codec

import (
	"fmt"
	"runtime"

	"repro/internal/video"
)

// EncodeSequence compresses a clip into the GOP structure. After an
// I-frame the encoder holds nothing but that frame's reconstruction, so
// each GOP depends only on its own frames and its first frame number.
// GOPs are therefore encoded concurrently, on min(GOMAXPROCS, #GOPs)
// goroutines, and the output is byte-identical to one Encoder fed the
// whole clip. Config.Workers still splits the macroblock rows of each
// frame. On failure it returns the error of the lowest failing frame.
func EncodeSequence(frames []*video.Frame, cfg Config) ([]*EncodedFrame, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]*EncodedFrame, len(frames))
	gops := (len(frames) + cfg.GOPSize - 1) / cfg.GOPSize
	errs := make([]error, gops) // first failure of each GOP
	parallelFor(min(runtime.GOMAXPROCS(0), gops), gops, func(g int) {
		errs[g] = encodeGOP(frames, out, g*cfg.GOPSize, cfg)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// encodeGOP encodes into out the GOP of frames that opens at frame first.
func encodeGOP(frames []*video.Frame, out []*EncodedFrame, first int, cfg Config) error {
	enc := &Encoder{cfg: cfg, count: first}
	defer enc.Reset() // recycles the last reconstruction
	for i := first; i < min(first+cfg.GOPSize, len(frames)); i++ {
		ef, err := enc.Encode(frames[i])
		if err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		out[i] = ef
	}
	return nil
}

// DecodeSequence reconstructs a clip from (possibly damaged or partially
// missing) encoded frames; nil entries are concealed whole.
func DecodeSequence(encoded []*EncodedFrame, cfg Config) ([]*video.Frame, error) {
	dec, err := NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]*video.Frame, len(encoded))
	for i, ef := range encoded {
		out[i] = dec.Decode(ef)
	}
	return out, nil
}

// ClipStats summarises the packet-level structure of an encoded clip,
// the calibration inputs of Section 6.1: per-class packet counts and
// sizes, the I-packet fraction p_I, and mean frame sizes.
type ClipStats struct {
	Frames        int
	GOPSize       int
	IFrames       int
	PFrames       int
	MeanISize     float64 // bytes per I-frame
	MeanPSize     float64 // bytes per P-frame
	IPackets      int
	PPackets      int
	IPacketSizes  []int
	PPacketSizes  []int
	TotalBytes    int
	IFraction     float64 // p_I: fraction of packets belonging to I-frames
	BytesFraction float64 // fraction of bytes belonging to I-frames
}

// AnalyzeClip packetizes every frame at the given MTU and accumulates the
// statistics the analytical model needs.
func AnalyzeClip(encoded []*EncodedFrame, cfg Config, mtu int) (ClipStats, error) {
	st := ClipStats{Frames: len(encoded), GOPSize: cfg.GOPSize}
	var iBytes, pBytes int
	for _, ef := range encoded {
		if ef == nil {
			continue
		}
		pkts, err := Packetize(ef, mtu)
		if err != nil {
			return ClipStats{}, err
		}
		size := ef.Size()
		if ef.Type == IFrame {
			st.IFrames++
			iBytes += size
			for _, p := range pkts {
				st.IPackets++
				st.IPacketSizes = append(st.IPacketSizes, len(p.Payload))
			}
		} else {
			st.PFrames++
			pBytes += size
			for _, p := range pkts {
				st.PPackets++
				st.PPacketSizes = append(st.PPacketSizes, len(p.Payload))
			}
		}
	}
	st.TotalBytes = iBytes + pBytes
	if st.IFrames > 0 {
		st.MeanISize = float64(iBytes) / float64(st.IFrames)
	}
	if st.PFrames > 0 {
		st.MeanPSize = float64(pBytes) / float64(st.PFrames)
	}
	if n := st.IPackets + st.PPackets; n > 0 {
		st.IFraction = float64(st.IPackets) / float64(n)
	}
	if st.TotalBytes > 0 {
		st.BytesFraction = float64(iBytes) / float64(st.TotalBytes)
	}
	return st, nil
}

// MeanPacketsPerIFrame returns n for Eq. (20)'s I-frame class: the average
// number of packets an I-frame fragments into.
func (s ClipStats) MeanPacketsPerIFrame() float64 {
	if s.IFrames == 0 {
		return 0
	}
	return float64(s.IPackets) / float64(s.IFrames)
}

// MeanPacketsPerPFrame returns n for the P-frame class (typically 1).
func (s ClipStats) MeanPacketsPerPFrame() float64 {
	if s.PFrames == 0 {
		return 0
	}
	return float64(s.PPackets) / float64(s.PFrames)
}

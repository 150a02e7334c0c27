package codec

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/video"
)

// FrameType distinguishes intra-coded and predicted frames.
type FrameType uint8

// Frame types of the IPP...P GOP structure.
const (
	IFrame FrameType = iota
	PFrame
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case IFrame:
		return "I"
	case PFrame:
		return "P"
	case BFrame:
		return "B"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// mbSize is the macroblock size (16x16 luma, 8x8 per chroma plane).
const mbSize = 16

// errCorrupt is returned when a bitstream decodes to impossible values;
// the affected macroblock is concealed.
var errCorrupt = errors.New("codec: corrupt bitstream")

// Config parameterises the codec.
type Config struct {
	Width, Height int
	// GOPSize is the distance between consecutive I-frames (Table 1 uses
	// 30 and 50).
	GOPSize int
	// QI and QP are the base quantisation steps for I- and P-frames.
	QI, QP float64
	// SearchRange bounds the motion search in pixels.
	SearchRange int
	// FullSearch switches the motion estimator from diamond search to
	// exhaustive search (slower, slightly better compression); kept for
	// the ablation benchmark.
	FullSearch bool
	// BFrames inserts this many bidirectionally predicted frames between
	// anchors (0 = the paper's IPP...P structure). Only the sequence APIs
	// (EncodeSequenceB / DecodeSequenceB) understand B streams.
	BFrames int
	// Workers bounds the number of goroutines coding macroblock rows of a
	// frame concurrently. 0 and 1 both select the serial path (so the zero
	// value behaves exactly as before); larger values are clamped to the
	// row count. The bitstream is bit-identical for every setting — see
	// parallel.go for the wavefront argument. Callers typically set it to
	// runtime.NumCPU(). It is the only concurrency knob: EncodeSequence
	// also encodes whole GOPs concurrently, unconditionally, and Workers
	// still governs only the rows inside each GOP's frames.
	Workers int
}

// DefaultConfig returns the settings used by the experiment harness:
// CIF frames, the given GOP size, and quantisation tuned so a clean
// transfer lands in the high-30s dB PSNR range typical of the paper's
// unimpaired receptions.
func DefaultConfig(gop int) Config {
	return Config{
		Width:       video.CIFWidth,
		Height:      video.CIFHeight,
		GOPSize:     gop,
		QI:          8,
		QP:          10,
		SearchRange: 16,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("codec: invalid dimensions %dx%d", c.Width, c.Height)
	case c.Width%mbSize != 0 || c.Height%mbSize != 0:
		return fmt.Errorf("codec: dimensions %dx%d not multiples of %d", c.Width, c.Height, mbSize)
	case c.GOPSize < 1:
		return fmt.Errorf("codec: GOP size %d", c.GOPSize)
	case c.QI <= 0 || c.QP <= 0:
		return fmt.Errorf("codec: quantisation steps must be positive")
	case c.SearchRange < 0 || c.SearchRange > 64:
		return fmt.Errorf("codec: search range %d out of [0,64]", c.SearchRange)
	case c.Workers < 0:
		return fmt.Errorf("codec: negative worker count %d", c.Workers)
	}
	return nil
}

// MBCols and MBRows return the macroblock grid dimensions.
func (c Config) MBCols() int { return c.Width / mbSize }

// MBRows returns the number of macroblock rows.
func (c Config) MBRows() int { return c.Height / mbSize }

// EncodedFrame is one compressed frame: a sequence of independently
// decodable macroblock chunks (the property that lets the packetizer form
// self-contained slices). A nil chunk marks a macroblock lost in transit.
type EncodedFrame struct {
	Number int
	Type   FrameType
	MBData [][]byte

	// rows holds, for frames the encoder or ReadContainer built, the
	// chunks in wire form, rowMBs macroblocks per row: one row per
	// macroblock row from the encoder, one for the whole frame from
	// ReadContainer. MBData's entries are views into them (see
	// slicer.go). Other frames have no rows and are packetized chunk by
	// chunk.
	rows   [][]byte
	rowMBs int
}

// Size returns the total compressed size in bytes.
func (f *EncodedFrame) Size() int {
	n := 0
	for _, mb := range f.MBData {
		n += len(mb)
	}
	return n
}

// Clone deep-copies the frame's chunks, one allocation per macroblock.
// The copy has no wire rows, so it is packetized chunk by chunk: the
// wire-format tests build their reference payloads from clones.
func (f *EncodedFrame) Clone() *EncodedFrame {
	c := &EncodedFrame{Number: f.Number, Type: f.Type, MBData: make([][]byte, len(f.MBData))}
	for i, mb := range f.MBData {
		if mb != nil {
			c.MBData[i] = append([]byte(nil), mb...)
		}
	}
	return c
}

// Encoder compresses a frame sequence into the IPP...P GOP structure,
// maintaining the same reconstructed reference the decoder will see.
type Encoder struct {
	cfg   Config
	ref   *video.Frame // last reconstruction
	count int
	// prevMVs holds the motion field of the previous P-frame; together
	// with the left-neighbour vector it seeds the diamond search, which is
	// what lets it track global pan on textured content.
	prevMVs [][2]int
	// retainRefs disables recycling of superseded reference frames. The
	// B-frame sequence encoder sets it because it keeps anchor
	// reconstructions alive across Encode calls.
	retainRefs bool
}

// NewEncoder returns an encoder for the configuration.
func NewEncoder(cfg Config) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Encoder{cfg: cfg}, nil
}

// Encode compresses the next frame of the sequence.
func (e *Encoder) Encode(f *video.Frame) (*EncodedFrame, error) {
	ft := PFrame
	if e.count%e.cfg.GOPSize == 0 || e.ref == nil {
		ft = IFrame
	}
	return e.encodeAs(f, ft)
}

// encodeAs compresses the next frame with an explicit type (the B-frame
// path uses it to keep trailing frames predicted).
func (e *Encoder) encodeAs(f *video.Frame, ft FrameType) (*EncodedFrame, error) {
	if f.W != e.cfg.Width || f.H != e.cfg.Height {
		return nil, fmt.Errorf("codec: frame %dx%d does not match config %dx%d", f.W, f.H, e.cfg.Width, e.cfg.Height)
	}
	if ft == PFrame && e.ref == nil {
		ft = IFrame
	}
	// Pooled frames come back dirty, which is fine: every macroblock coder
	// writes its full pixel footprint, so the whole reconstruction is
	// overwritten below.
	recon := getFrame(f.W, f.H)
	cols, rows := e.cfg.MBCols(), e.cfg.MBRows()
	out := newWireFrame(e.count, ft, cols, rows)
	mvs := make([][2]int, cols*rows)
	var t0 time.Time
	if obs.Enabled() {
		t0 = time.Now() //lint:allow walltime observability seam: times the encode, never feeds the model
	}
	e.encodeRows(f, recon, out, mvs, ft)
	if obs.Enabled() {
		mEncodeFrameSeconds.Observe(time.Since(t0).Seconds()) //lint:allow walltime observability seam: times the encode, never feeds the model
		countEncodedFrame(out)
	}
	if ft == PFrame {
		e.prevMVs = mvs
	} else {
		e.prevMVs = nil
	}
	if e.ref != nil && !e.retainRefs {
		putFrame(e.ref)
	}
	e.ref = recon
	e.count++
	return out, nil
}

// Reset returns the encoder to the start-of-stream state.
func (e *Encoder) Reset() {
	if e.ref != nil && !e.retainRefs {
		putFrame(e.ref)
	}
	e.ref, e.count, e.prevMVs = nil, 0, nil
}

// Decoder reconstructs a frame sequence, concealing lost macroblocks and
// frames by copying from the most recent reference (the substitution rule
// of Section 4.3.2).
type Decoder struct {
	cfg Config
	ref *video.Frame
}

// NewDecoder returns a decoder for the configuration.
func NewDecoder(cfg Config) (*Decoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Decoder{cfg: cfg}, nil
}

// Decode reconstructs one frame. A nil EncodedFrame, or one whose chunks
// are all missing, is concealed entirely by repeating the previous
// reconstruction (grey for a leading loss). Individual nil/corrupt chunks
// are concealed per macroblock. Decode never fails on damaged input; the
// damage shows up as distortion, as in the testbed.
func (d *Decoder) Decode(ef *EncodedFrame) *video.Frame {
	mFramesDecoded.Inc()
	out := video.NewFrame(d.cfg.Width, d.cfg.Height)
	cols, rows := d.cfg.MBCols(), d.cfg.MBRows()
	if ef == nil {
		d.concealFrame(out)
		d.ref = out
		return out
	}
	if cols*rows != len(ef.MBData) {
		d.concealFrame(out)
		d.ref = out
		return out
	}
	// Resolve the leading-loss reference once per frame instead of per
	// macroblock so inter rows share one pooled grey frame.
	ref := d.ref
	var grey *video.Frame
	if ef.Type != IFrame && ref == nil {
		grey = getGreyFrame(d.cfg.Width, d.cfg.Height)
		ref = grey
	}
	if workers := d.cfg.rowWorkers(rows); workers > 1 {
		parallelFor(workers, rows, func(my int) {
			d.decodeRow(ef, ref, out, my)
		})
	} else {
		for my := 0; my < rows; my++ {
			d.decodeRow(ef, ref, out, my)
		}
	}
	if grey != nil {
		putFrame(grey)
	}
	d.ref = out
	return out
}

// Reset returns the decoder to the start-of-stream state.
func (d *Decoder) Reset() { d.ref = nil }

// concealFrame copies the previous reconstruction (or mid-grey when there
// is none).
func (d *Decoder) concealFrame(out *video.Frame) {
	if d.ref == nil {
		for i := range out.Y {
			out.Y[i] = 128
		}
		return
	}
	copy(out.Y, d.ref.Y)
	copy(out.Cb, d.ref.Cb)
	copy(out.Cr, d.ref.Cr)
}

// concealMB copies one macroblock region from the reference.
func (d *Decoder) concealMB(out *video.Frame, mx, my int) {
	x0, y0 := mx*mbSize, my*mbSize
	if d.ref == nil {
		for y := y0; y < y0+mbSize; y++ {
			for x := x0; x < x0+mbSize; x++ {
				out.Y[y*out.W+x] = 128
			}
		}
		return
	}
	for y := y0; y < y0+mbSize; y++ {
		copy(out.Y[y*out.W+x0:y*out.W+x0+mbSize], d.ref.Y[y*out.W+x0:y*out.W+x0+mbSize])
	}
	cw := out.W / 2
	cx0, cy0 := x0/2, y0/2
	for y := cy0; y < cy0+mbSize/2; y++ {
		copy(out.Cb[y*cw+cx0:y*cw+cx0+mbSize/2], d.ref.Cb[y*cw+cx0:y*cw+cx0+mbSize/2])
		copy(out.Cr[y*cw+cx0:y*cw+cx0+mbSize/2], d.ref.Cr[y*cw+cx0:y*cw+cx0+mbSize/2])
	}
}

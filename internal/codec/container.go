package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Minimal container format for encoded clips, standing in for the MP4
// packaging role GPAC plays in the original toolchain (DESIGN.md): a
// header carrying the codec configuration followed by length-prefixed
// frames of length-prefixed macroblock chunks. All integers are unsigned
// varints.

// containerMagic identifies the format.
var containerMagic = [4]byte{'T', 'V', 'I', 'D'}

const containerVersion = 1

// WriteContainer serialises an encoded clip.
func WriteContainer(w io.Writer, cfg Config, frames []*EncodedFrame) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(containerMagic[:]); err != nil {
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		_, err := bw.Write(tmp[:n])
		return err
	}
	fields := []uint64{
		containerVersion,
		uint64(cfg.Width), uint64(cfg.Height), uint64(cfg.GOPSize),
		uint64(cfg.QI * 1000), uint64(cfg.QP * 1000), uint64(cfg.SearchRange),
		uint64(len(frames)),
	}
	for _, f := range fields {
		if err := put(f); err != nil {
			return err
		}
	}
	for i, ef := range frames {
		if ef == nil {
			return fmt.Errorf("codec: cannot store nil frame %d", i)
		}
		if err := put(uint64(ef.Type)); err != nil {
			return err
		}
		if err := put(uint64(len(ef.MBData))); err != nil {
			return err
		}
		for _, mb := range ef.MBData {
			if err := put(uint64(len(mb))); err != nil {
				return err
			}
			if _, err := bw.Write(mb); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadContainer parses a clip written by WriteContainer.
func ReadContainer(r io.Reader) (Config, []*EncodedFrame, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Config{}, nil, err
	}
	if magic != containerMagic {
		return Config{}, nil, fmt.Errorf("codec: not a TVID container")
	}
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	version, err := get()
	if err != nil {
		return Config{}, nil, err
	}
	if version != containerVersion {
		return Config{}, nil, fmt.Errorf("codec: unsupported container version %d", version)
	}
	var cfg Config
	w, err := get()
	if err != nil {
		return Config{}, nil, err
	}
	h, err := get()
	if err != nil {
		return Config{}, nil, err
	}
	gop, err := get()
	if err != nil {
		return Config{}, nil, err
	}
	qi, err := get()
	if err != nil {
		return Config{}, nil, err
	}
	qp, err := get()
	if err != nil {
		return Config{}, nil, err
	}
	sr, err := get()
	if err != nil {
		return Config{}, nil, err
	}
	count, err := get()
	if err != nil {
		return Config{}, nil, err
	}
	// Cap the dimensions before trusting them: Validate only checks
	// positivity and alignment, and a hostile header with plausible-but-
	// huge dimensions would otherwise drive the per-frame macroblock
	// allocation below into the terabytes.
	const maxContainerDim = 1 << 14
	if w > maxContainerDim || h > maxContainerDim {
		return Config{}, nil, fmt.Errorf("codec: container dimensions %dx%d exceed %d", w, h, maxContainerDim)
	}
	cfg = Config{
		Width: int(w), Height: int(h), GOPSize: int(gop),
		QI: float64(qi) / 1000, QP: float64(qp) / 1000, SearchRange: int(sr),
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, nil, fmt.Errorf("codec: container config invalid: %w", err)
	}
	if count > 1<<20 {
		return Config{}, nil, fmt.Errorf("codec: implausible frame count %d", count)
	}
	mbTotal := cfg.MBCols() * cfg.MBRows()
	frames := make([]*EncodedFrame, count)
	// A frame is stored as (len | bytes) per macroblock, its wire form,
	// so it is read as it stands into buf and copied once into its own
	// arena. lens and buf grow with the input, not with what the header
	// claims.
	var (
		buf  []byte
		lens []int
	)
	for i := range frames {
		ft, err := get()
		if err != nil {
			return Config{}, nil, err
		}
		if ft > uint64(BFrame) {
			return Config{}, nil, fmt.Errorf("codec: bad frame type %d", ft)
		}
		nmb, err := get()
		if err != nil {
			return Config{}, nil, err
		}
		if int(nmb) != mbTotal {
			return Config{}, nil, fmt.Errorf("codec: frame %d has %d macroblocks, want %d", i, nmb, mbTotal)
		}
		buf = buf[:0]
		lens = lens[:0]
		for m := 0; m < mbTotal; m++ {
			l, err := get()
			if err != nil {
				return Config{}, nil, err
			}
			if l > 1<<24 {
				return Config{}, nil, fmt.Errorf("codec: implausible macroblock of %d bytes", l)
			}
			buf = slices.Grow(appendUvarint(buf, l), int(l))
			chunk := buf[len(buf):cap(buf)]
			if uint64(len(chunk)) < l { // Grow made the room; this proves it
				return Config{}, nil, fmt.Errorf("codec: no room for a macroblock of %d bytes", l)
			}
			if _, err := io.ReadFull(br, chunk[:l]); err != nil {
				return Config{}, nil, err
			}
			buf = buf[:len(buf)+len(chunk[:l])]
			lens = append(lens, int(l))
		}
		// The frame's macroblocks are contiguous in one arena, so it is
		// one wire row: a slice is then a single copy even where it
		// crosses a macroblock row.
		ef := newWireFrame(i, FrameType(ft), mbTotal, 1)
		ef.setRow(0, bytes.Clone(buf), lens)
		frames[i] = ef
	}
	return cfg, frames, nil
}

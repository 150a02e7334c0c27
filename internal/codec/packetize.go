package codec

import (
	"encoding/binary"
	"fmt"
)

// Slice packetization. A packet carries a self-contained slice: a run of
// consecutive macroblocks of one frame plus enough header to place them.
// I-frames are much larger than the MTU and fragment into many packets;
// P-frames typically fit in one small packet — exactly the two arrival
// classes of the paper's 2-MMPP model (Section 4.2.1).
//
// Wire format (all integers unsigned varints):
//
//	frameNumber | frameType | mbStart | mbCount | (len | bytes)*mbCount

// Packet is one network-ready slice of an encoded frame.
type Packet struct {
	FrameNumber int
	Type        FrameType
	MBStart     int
	MBCount     int
	Payload     []byte // serialized slice, the unit of encryption
}

// IsIFrame reports whether the packet belongs to an I-frame, the property
// encryption policies select on.
func (p Packet) IsIFrame() bool { return p.Type == IFrame }

// Packetize splits an encoded frame into slice packets whose payloads do
// not exceed mtu bytes (individual macroblocks larger than the MTU get a
// packet of their own; with sane quantisation this does not happen at CIF).
func Packetize(ef *EncodedFrame, mtu int) ([]Packet, error) {
	if mtu < 64 {
		return nil, fmt.Errorf("codec: mtu %d too small", mtu)
	}
	var out []Packet
	start := 0
	for start < len(ef.MBData) {
		end := nextSliceEnd(ef, start, mtu)
		payload := AppendSlice(make([]byte, 0, sliceLen(ef, start, end-start)), ef, start, end-start)
		out = append(out, Packet{
			FrameNumber: ef.Number,
			Type:        ef.Type,
			MBStart:     start,
			MBCount:     end - start,
			Payload:     payload,
		})
		start = end
	}
	return out, nil
}

// ParsePacket decodes a slice payload back into a Packet with the
// macroblock chunks attached (stored concatenated in Payload; use
// SliceMBs to extract them).
func ParsePacket(payload []byte) (Packet, error) {
	p := Packet{Payload: payload}
	rest := payload
	get := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("codec: bad varint in slice header")
		}
		rest = rest[n:]
		return v, nil
	}
	fn, err := get()
	if err != nil {
		return p, err
	}
	ft, err := get()
	if err != nil {
		return p, err
	}
	if ft > uint64(BFrame) {
		return p, fmt.Errorf("codec: bad frame type %d", ft)
	}
	ms, err := get()
	if err != nil {
		return p, err
	}
	mc, err := get()
	if err != nil {
		return p, err
	}
	p.FrameNumber = int(fn)
	p.Type = FrameType(ft)
	p.MBStart = int(ms)
	p.MBCount = int(mc)
	return p, nil
}

// SliceMBs extracts the macroblock chunks of a parsed slice payload.
func SliceMBs(payload []byte) (mbStart int, chunks [][]byte, err error) {
	rest := payload
	get := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("codec: bad varint in slice")
		}
		rest = rest[n:]
		return v, nil
	}
	if _, err = get(); err != nil { // frame number
		return 0, nil, err
	}
	if _, err = get(); err != nil { // type
		return 0, nil, err
	}
	ms, err := get()
	if err != nil {
		return 0, nil, err
	}
	if ms > 1<<20 {
		// Also keeps int(ms) from wrapping negative on a hostile varint,
		// which would slip past the reassembler's upper-bound check and
		// index out of range.
		return 0, nil, fmt.Errorf("codec: implausible slice start %d", ms)
	}
	mc, err := get()
	if err != nil {
		return 0, nil, err
	}
	if mc > 1<<20 {
		return 0, nil, fmt.Errorf("codec: implausible slice size %d", mc)
	}
	chunks = make([][]byte, mc)
	for i := range chunks {
		l, err := get()
		if err != nil {
			return 0, nil, err
		}
		if uint64(len(rest)) < l {
			return 0, nil, fmt.Errorf("codec: slice truncated")
		}
		chunks[i] = rest[:l]
		rest = rest[l:]
	}
	return int(ms), chunks, nil
}

// Reassembler collects slice payloads back into per-frame EncodedFrames,
// leaving nil chunks where slices never arrived (lost or, at the
// eavesdropper, encrypted). It is the receive-side counterpart of
// Packetize.
type Reassembler struct {
	cfg    Config
	frames map[int]*EncodedFrame
}

// NewReassembler returns a reassembler for streams encoded with cfg.
func NewReassembler(cfg Config) (*Reassembler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Reassembler{cfg: cfg, frames: make(map[int]*EncodedFrame)}, nil
}

// Add incorporates one received slice payload. Damaged payloads are
// reported but otherwise ignored (the affected macroblocks stay lost).
//
// Add copies the payload exactly once. It first walks and validates
// every chunk in place, so a damaged payload leaves the frame
// untouched; then it copies the chunk section into one buffer and points
// the frame's MBData entries into it. Each entry's capacity equals its
// length, so appending to one chunk can never overwrite the next, and a
// zero-length chunk stays nil (the decoder's "lost" marker). The caller
// may reuse payload as soon as Add returns.
func (r *Reassembler) Add(payload []byte) error {
	// Header: frame number, frame type, first macroblock, chunk count.
	rest := payload
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	fn, ok0 := next()
	ft, ok1 := next()
	if !ok0 || !ok1 {
		return fmt.Errorf("codec: bad varint in slice header")
	}
	if ft > uint64(BFrame) {
		return fmt.Errorf("codec: bad frame type %d", ft)
	}
	ms, ok2 := next()
	mc, ok3 := next()
	if !ok2 || !ok3 {
		return fmt.Errorf("codec: bad varint in slice header")
	}
	if ms > 1<<20 {
		return fmt.Errorf("codec: implausible slice start %d", ms)
	}
	if mc > 1<<20 {
		return fmt.Errorf("codec: implausible slice size %d", mc)
	}
	section := rest
	for i := uint64(0); i < mc; i++ {
		l, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("codec: bad varint in slice")
		}
		rest = rest[n:]
		if uint64(len(rest)) < l {
			return fmt.Errorf("codec: slice truncated")
		}
		rest = rest[l:]
	}
	section = section[:len(section)-len(rest)]
	mbStart, count := int(ms), int(mc)
	total := r.cfg.MBCols() * r.cfg.MBRows()
	if count > total || mbStart > total-count {
		return fmt.Errorf("codec: slice range [%d,%d) exceeds %d macroblocks", mbStart, mbStart+count, total)
	}
	f := r.frames[int(fn)]
	if f == nil {
		f = &EncodedFrame{Number: int(fn), Type: FrameType(ft), MBData: make([][]byte, total)}
		r.frames[int(fn)] = f
	}
	buf := make([]byte, len(section))
	copy(buf, section)
	// The walk above validated these bytes and cut the section to end
	// exactly after the last chunk, so walking the copy to its end visits
	// each chunk once. The guards are repeated on the copy to keep every
	// bounds proof local (the netbound gate verifies them).
	rest = buf
	for j := mbStart; len(rest) > 0; j++ {
		l, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("codec: bad varint in slice")
		}
		rest = rest[n:]
		if uint64(len(rest)) < l {
			return fmt.Errorf("codec: slice truncated")
		}
		// The range check above already constrains the chunks against
		// total, but total and len(f.MBData) are only equal while every
		// frame of the session was built by this reassembler;
		// re-checking against the destination itself keeps the write in
		// bounds under any future refactor.
		if j >= len(f.MBData) {
			return fmt.Errorf("codec: slice chunk %d lands outside %d macroblocks", j, len(f.MBData))
		}
		f.MBData[j] = nil
		if l > 0 {
			f.MBData[j] = rest[:l:l]
		}
		rest = rest[l:]
	}
	return nil
}

// Frame returns the (possibly partial) frame n, or nil if nothing of it
// arrived.
func (r *Reassembler) Frame(n int) *EncodedFrame { return r.frames[n] }

// Frames returns the first total frames in order; entries are nil for
// frames of which nothing arrived.
func (r *Reassembler) Frames(total int) []*EncodedFrame {
	out := make([]*EncodedFrame, total)
	for i := range out {
		out[i] = r.frames[i]
	}
	return out
}

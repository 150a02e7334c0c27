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
//
// It holds only what arrived: per frame, the type and the slices in
// arrival order. Frame and Frames build EncodedFrame views from them on
// demand, so a frame costs its payload bytes rather than a slice header
// for every macroblock of the picture.
//
// The held bytes live in the reassembler's own append-only arena (see
// hold), a few large chunks per session rather than one heap object per
// packet: when a session ends its chunks free whole spans, instead of
// leaving holes among other sessions' packets that keep the spans
// resident.
type Reassembler struct {
	cfg    Config
	frames map[int]heldFrame

	// chunk is the arena's current chunk: held bytes, then free
	// capacity. Bytes once written are never written again.
	chunk []byte
	// arena is the capacity of the chunks made since the last rebuild
	// and live the length of the held slice bodies. The difference is
	// dead: bodies dropped or compacted away, chunk tails too short for
	// the next body, and the current chunk's free space.
	arena, live int
}

// Arena chunks double from minChunk to maxChunk. Each size from 8 KiB up
// is the only object in its span.
const (
	minChunk = 1 << 10
	maxChunk = 64 << 10
)

// heldFrame is what arrived of one frame: the type of its first slice
// and the slices themselves, in arrival order.
type heldFrame struct {
	typ    FrameType
	slices []heldSlice
}

// heldSlice is one arrived slice covering macroblocks
// [start, start+count). body is its wire bytes from the first-macroblock
// varint on (mbStart | mbCount | (len | bytes)*mbCount), the one copy
// Add makes, in the arena; replay parses it again so that every write
// into a view carries a local bounds proof.
type heldSlice struct {
	start, count int
	body         []byte
}

// NewReassembler returns a reassembler for streams encoded with cfg.
func NewReassembler(cfg Config) (*Reassembler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Reassembler{cfg: cfg, frames: make(map[int]heldFrame)}, nil
}

// Add incorporates one received slice payload. Damaged payloads are
// reported but otherwise ignored (the affected macroblocks stay lost).
//
// Add copies the payload exactly once. It first walks and validates
// every chunk in place, so a damaged payload leaves the frame
// untouched; then it copies the slice into the arena and holds it. A
// held slice whose range the new one covers can no longer show in any
// view, so Add drops it; should overlapping slices still outnumber the
// frame's macroblocks, the frame is compacted into a single slice, which
// bounds what a frame holds whatever is resent. Should the arena's dead
// bytes then exceed its live bytes plus one chunk, the held bodies move
// to a fresh arena, which bounds the arena by twice what is held plus a
// chunk. The caller may reuse payload as soon as Add returns.
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
	body := rest
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
	body = body[:len(body)-len(rest)]
	start, count := int(ms), int(mc)
	total := r.cfg.MBCols() * r.cfg.MBRows()
	if count > total || start > total-count {
		return fmt.Errorf("codec: slice range [%d,%d) exceeds %d macroblocks", start, start+count, total)
	}
	f, held := r.frames[int(fn)]
	if !held {
		f.typ = FrameType(ft)
	}
	if count > 0 {
		if f.slices == nil {
			// Slices of one frame are about equally large, so the
			// first one predicts how many will follow. The guess is
			// capped by the slice's own length, so a tiny slice cannot
			// reserve a long list.
			f.slices = make([]heldSlice, 0, min((total+count-1)/count, len(body)))
		}
		kept := f.slices[:0]
		for _, s := range f.slices {
			if s.start < start || s.start+s.count > start+count {
				kept = append(kept, s)
			} else {
				r.live -= len(s.body)
			}
		}
		clear(f.slices[len(kept):]) // spare entries must not pin chunks a rebuild has left
		f.slices = append(kept, heldSlice{start: start, count: count, body: r.hold(body)})
		if len(f.slices) > total {
			r.compact(&f, total)
		}
	}
	r.frames[int(fn)] = f
	if r.arena-r.live > r.live+maxChunk {
		r.rebuild()
	}
	return nil
}

// hold copies body into the arena and returns the copy, its capacity
// equal to its length. A body that does not fit the current chunk's free
// space starts a new chunk: the next power of two up to maxChunk, or the
// body's own length if that is larger.
func (r *Reassembler) hold(body []byte) []byte {
	if cap(r.chunk)-len(r.chunk) < len(body) {
		size := minChunk
		for size < maxChunk && (size <= cap(r.chunk) || size < len(body)) {
			size *= 2
		}
		size = max(size, len(body))
		r.chunk = make([]byte, 0, size)
		r.arena += size
	}
	off := len(r.chunk)
	r.chunk = append(r.chunk, body...)
	r.live += len(body)
	return r.chunk[off:len(r.chunk):len(r.chunk)]
}

// rebuild copies every held body into one fresh chunk of exactly the
// live bytes. The copy costs less than twice the bytes added and dropped
// since the last rebuild, so resends cannot make Add quadratic. Views
// built earlier keep the old chunks alive as long as they are
// referenced.
func (r *Reassembler) rebuild() {
	chunk := make([]byte, 0, r.live)
	for _, f := range r.frames {
		for i, s := range f.slices {
			off := len(chunk)
			chunk = append(chunk, s.body...)
			f.slices[i].body = chunk[off:len(chunk):len(chunk)]
		}
	}
	r.chunk, r.arena = chunk, r.live
}

// view builds frame n's EncodedFrame from the held slices. The view
// shares the held bytes, which are never written again, so later Adds
// do not change it.
func (f heldFrame) view(n, total int) *EncodedFrame {
	ef := &EncodedFrame{Number: n, Type: f.typ, MBData: make([][]byte, total)}
	for _, s := range f.slices {
		replay(ef.MBData, s.body)
	}
	return ef
}

// replay writes one held slice body into mb. Replaying a frame's slices
// in arrival order lets the last write to a macroblock win, and a
// zero-length chunk stays nil (the decoder's "lost" marker). Each chunk
// keeps its capacity equal to its length, so appending to one chunk can
// never overwrite the next.
func replay(mb [][]byte, body []byte) {
	// Add validated the body, so these walks always succeed. The guards
	// are repeated here to keep every bounds proof local (the netbound
	// gate verifies them).
	ms, n := binary.Uvarint(body)
	if n <= 0 || ms > 1<<20 {
		return
	}
	rest := body[n:]
	if _, n = binary.Uvarint(rest); n <= 0 {
		return
	}
	rest = rest[n:]
	for j := int(ms); len(rest) > 0; j++ {
		l, n := binary.Uvarint(rest)
		if n <= 0 {
			return
		}
		rest = rest[n:]
		if uint64(len(rest)) < l {
			return
		}
		if j >= len(mb) {
			return
		}
		mb[j] = nil
		if l > 0 {
			mb[j] = rest[:l:l]
		}
		rest = rest[l:]
	}
}

// compact replaces f's held slices by one slice over [0,total) that
// encodes the frame's current view, unheld macroblocks as empty chunks.
func (r *Reassembler) compact(f *heldFrame, total int) {
	ef := f.view(0, total)
	wire := AppendSlice(make([]byte, 0, sliceLen(ef, 0, total)), ef, 0, total)
	hdr := uvarintLen(uint64(ef.Number)) + uvarintLen(uint64(ef.Type))
	for _, s := range f.slices {
		r.live -= len(s.body)
	}
	f.slices = []heldSlice{{start: 0, count: total, body: r.hold(wire[hdr:])}}
}

// Frame returns a snapshot of the (possibly partial) frame n, or nil if
// nothing of it arrived. Later Adds do not change a returned snapshot.
func (r *Reassembler) Frame(n int) *EncodedFrame {
	f, ok := r.frames[n]
	if !ok {
		return nil
	}
	return f.view(n, r.cfg.MBCols()*r.cfg.MBRows())
}

// Frames returns snapshots of the first total frames in order; entries
// are nil for frames of which nothing arrived. Later Adds do not change
// the returned frames.
func (r *Reassembler) Frames(total int) []*EncodedFrame {
	out := make([]*EncodedFrame, total)
	for i := range out {
		out[i] = r.Frame(i)
	}
	return out
}

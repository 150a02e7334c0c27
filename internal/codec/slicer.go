package codec

import (
	"encoding/binary"
	"fmt"
)

// Wire-form rows. The encoder writes each macroblock row's chunks into
// one arena in the slice wire form, uvarint(len) | chunk per macroblock,
// and ReadContainer a whole frame's; MBData[i] is a view of chunk i
// inside its arena, its capacity equal to its length. The (len | bytes)
// run of a slice is then a contiguous span of a wire row, and the
// packetizer emits each row run of a slice with one copy instead of one
// varint and one copy per chunk. The views are built only once a row's
// arena has stopped growing, so they never point into an array an
// append has since replaced.
//
// MBData stays the frame's authority: callers may drop, shrink, grow or
// replace chunks. Before copying a span, appendChunks checks every
// macroblock in it: MBData[i] must start at the chunk's address in the
// row and have its length, and the row's prefix bytes must be the
// canonical varint of that length. A macroblock that fails is marshaled
// from MBData instead, so the payload is always the per-chunk encoding
// of MBData. Writes into a view write the row, so they need no check.

// Slicer walks the slices of one encoded frame in order. Packetize,
// PacketizeInto and the HTTP segment store all take their slices from
// it, so every caller cuts a frame at the same boundaries. One pass over
// the chunk lengths finds where a slice ends, its exact payload size,
// and where its first macroblock sits in the wire rows; Append then
// marshals the slice.
type Slicer struct {
	ef         *EncodedFrame
	mtu        int
	start, end int // the current slice covers macroblocks [start, end)
	size       int // its exact payload size
	off        int // wire-row offset of macroblock start
	next       int // wire-row offset of macroblock end
	rowEnd     int // first macroblock of the row after macroblock end's
}

// NewSlicer returns a Slicer over ef's slices for payloads of at most
// mtu bytes. A macroblock larger than the MTU gets a slice of its own;
// with sane quantisation this does not happen at CIF.
func NewSlicer(ef *EncodedFrame, mtu int) (Slicer, error) {
	if mtu < 64 {
		return Slicer{}, fmt.Errorf("codec: mtu %d too small", mtu)
	}
	return Slicer{ef: ef, mtu: mtu, rowEnd: ef.rowMBs}, nil
}

// Next advances to the next slice and reports whether there is one.
//
// A slice takes macroblocks while a conservative size estimate (a
// five-byte varint per chunk and per header field) stays within the MTU.
// The estimate fixes the slice boundaries, and so the wire bytes; the
// exact size is what Append appends.
func (s *Slicer) Next() bool {
	mbs := s.ef.MBData
	start := s.end
	s.start, s.off = start, s.next
	if start >= len(mbs) {
		return false
	}
	// budget is what the estimate may still grow by; sum is the chunks'
	// bytes and long the prefix bytes beyond one per chunk, so the
	// chunks take sum + count + long bytes on the wire.
	budget := s.mtu - 4*binary.MaxVarintLen32
	sum, long := 0, 0
	rowEnd, rowStart := s.rowEnd, -1 // rowStart: wire bytes before the last row crossed
	end := start
	for end < len(mbs) {
		l := len(mbs[end])
		add := l + binary.MaxVarintLen32
		if add > budget && end > start {
			break
		}
		budget -= add
		sum += l
		if l >= 0x80 {
			long += uvarintLen(uint64(l)) - 1
		}
		end++
		if end == rowEnd {
			rowStart = sum + end - start + long
			rowEnd += s.ef.rowMBs
		}
	}
	size := sum + end - start + long
	s.end, s.rowEnd = end, rowEnd
	if s.next += size; rowStart >= 0 {
		s.next = size - rowStart
	}
	s.size = size + headerLen(s.ef, start, end-start)
	return true
}

// Len returns the exact payload size of the current slice: the number
// of bytes Append appends.
func (s *Slicer) Len() int { return s.size }

// Append appends the current slice's payload to dst and returns the
// extended slice.
func (s *Slicer) Append(dst []byte) []byte {
	dst = appendHeader(dst, s.ef, s.start, s.end-s.start)
	return appendChunks(dst, s.ef, s.start, s.end, s.off)
}

// packet returns the current slice's Packet carrying payload.
func (s *Slicer) packet(payload []byte) Packet {
	return Packet{
		FrameNumber: s.ef.Number,
		Type:        s.ef.Type,
		MBStart:     s.start,
		MBCount:     s.end - s.start,
		Payload:     payload,
	}
}

// AppendSlice appends the wire encoding of the slice covering mbCount
// macroblocks from mbStart to dst and returns the extended slice. The
// encoding is exactly the payload Packetize produces for that range.
func AppendSlice(dst []byte, ef *EncodedFrame, mbStart, mbCount int) []byte {
	off := 0
	if ef.rowMBs > 0 {
		for i := mbStart - mbStart%ef.rowMBs; i < mbStart; i++ {
			l := len(ef.MBData[i])
			off += uvarintLen(uint64(l)) + l
		}
	}
	dst = appendHeader(dst, ef, mbStart, mbCount)
	return appendChunks(dst, ef, mbStart, mbStart+mbCount, off)
}

// headerLen returns the size of a slice header.
func headerLen(ef *EncodedFrame, mbStart, mbCount int) int {
	return uvarintLen(uint64(ef.Number)) + uvarintLen(uint64(ef.Type)) +
		uvarintLen(uint64(mbStart)) + uvarintLen(uint64(mbCount))
}

// appendHeader appends a slice header: frame number, frame type, first
// macroblock and macroblock count.
func appendHeader(dst []byte, ef *EncodedFrame, mbStart, mbCount int) []byte {
	dst = appendUvarint(dst, uint64(ef.Number))
	dst = appendUvarint(dst, uint64(ef.Type))
	dst = appendUvarint(dst, uint64(mbStart))
	return appendUvarint(dst, uint64(mbCount))
}

// appendChunks appends the (len | bytes) encoding of macroblocks
// [start, end) to dst. off is the offset of macroblock start in its
// wire row. Each run of verified views within a row is copied from the
// row in one piece; every other macroblock is marshaled from MBData.
func appendChunks(dst []byte, ef *EncodedFrame, start, end, off int) []byte {
	mbs, rows, cols := ef.MBData, ef.rows, ef.rowMBs
	for i := start; i < end; {
		var row []byte
		stop := end
		if cols > 0 {
			if r := i / cols; r < len(rows) {
				row = rows[r]
			}
			stop = min(end, (i/cols+1)*cols)
		}
		from := off // start of the pending run of views
		for ; i < stop; i++ {
			mb := mbs[i]
			l := len(mb)
			// Is mb the chunk whose length prefix starts at row[off]? A
			// one-byte prefix, nearly every macroblock's, is checked
			// inline.
			if l < 0x80 && off < len(row)-l && row[off] == byte(l) && (l == 0 || &row[off+1] == &mb[0]) {
				off += 1 + l
				continue
			}
			w := uvarintLen(uint64(l))
			if w == 1 || !isLongView(row, off, mb) {
				if off > from {
					dst = append(dst, row[from:off]...)
				}
				dst = appendUvarint(dst, uint64(l))
				dst = append(dst, mb...)
				from = off + w + l
			}
			off += w + l
		}
		if off > from {
			dst = append(dst, row[from:off]...)
		}
		off = 0
	}
	return dst
}

// isLongView reports whether mb, a chunk of 128 bytes or more, is the
// chunk whose length prefix starts at row[off]: the prefix is the
// canonical varint of len(mb), and mb starts right behind it.
func isLongView(row []byte, off int, mb []byte) bool {
	v := uint64(len(mb))
	for ; v >= 0x80; v >>= 7 {
		if off >= len(row) || row[off] != byte(v)|0x80 {
			return false
		}
		off++
	}
	return off < len(row)-len(mb) && row[off] == byte(v) && &row[off+1] == &mb[0]
}

// appendChunk appends one chunk to a wire-form row arena.
func appendChunk(row, chunk []byte) []byte {
	return append(appendUvarint(row, uint64(len(chunk))), chunk...)
}

// setRow installs row my's wire-form arena, which must not grow again,
// and points the row's MBData entries at its chunks, whose lengths are
// lens.
func (f *EncodedFrame) setRow(my int, row []byte, lens []int) {
	f.rows[my] = row
	mb := f.MBData[my*f.rowMBs : (my+1)*f.rowMBs]
	off := 0
	for i, l := range lens {
		off += uvarintLen(uint64(l))
		mb[i] = row[off : off+l : off+l]
		off += l
	}
}

// newWireFrame returns a frame of rows macroblock rows of cols
// macroblocks each, ready for setRow.
func newWireFrame(number int, ft FrameType, cols, rows int) *EncodedFrame {
	return &EncodedFrame{
		Number: number,
		Type:   ft,
		MBData: make([][]byte, cols*rows),
		rows:   make([][]byte, rows),
		rowMBs: cols,
	}
}

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendUvarint appends v as an unsigned varint.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/video"
)

// The wire-form fast path against a per-chunk reference. refPacketize
// cuts and marshals slices from MBData alone, the way the packetizer
// did before frames carried wire rows, so the fast path is checked
// against an implementation that cannot share its bugs.

// refSlice marshals the slice covering macroblocks [start, start+count)
// chunk by chunk.
func refSlice(ef *EncodedFrame, start, count int) []byte {
	dst := binary.AppendUvarint(nil, uint64(ef.Number))
	dst = binary.AppendUvarint(dst, uint64(ef.Type))
	dst = binary.AppendUvarint(dst, uint64(start))
	dst = binary.AppendUvarint(dst, uint64(count))
	for _, mb := range ef.MBData[start : start+count] {
		dst = binary.AppendUvarint(dst, uint64(len(mb)))
		dst = append(dst, mb...)
	}
	return dst
}

// refPacketize cuts a frame into slices under the packetizer's
// conservative size estimate (five bytes per varint) and marshals each
// with refSlice.
func refPacketize(ef *EncodedFrame, mtu int) []Packet {
	var out []Packet
	for start := 0; start < len(ef.MBData); {
		est, end := 4*binary.MaxVarintLen32, start
		for end < len(ef.MBData) {
			add := len(ef.MBData[end]) + binary.MaxVarintLen32
			if end > start && est+add > mtu {
				break
			}
			est += add
			end++
		}
		out = append(out, Packet{FrameNumber: ef.Number, Type: ef.Type, MBStart: start, MBCount: end - start, Payload: refSlice(ef, start, end-start)})
		start = end
	}
	return out
}

// samePackets reports the first difference between got and the
// reference packets.
func samePackets(got, want []Packet) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d packets, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.FrameNumber != w.FrameNumber || g.Type != w.Type || g.MBStart != w.MBStart || g.MBCount != w.MBCount {
			return fmt.Errorf("packet %d header %d/%v/[%d+%d), reference %d/%v/[%d+%d)", i,
				g.FrameNumber, g.Type, g.MBStart, g.MBCount, w.FrameNumber, w.Type, w.MBStart, w.MBCount)
		}
		if !bytes.Equal(g.Payload, w.Payload) {
			return fmt.Errorf("packet %d payload\n got %x\nwant %x", i, g.Payload, w.Payload)
		}
	}
	return nil
}

// wireCopy deep-copies a frame with its wire rows, views included, so a
// fuzz iteration can edit it without touching the shared original.
func wireCopy(ef *EncodedFrame) *EncodedFrame {
	c := newWireFrame(ef.Number, ef.Type, ef.rowMBs, len(ef.rows))
	for my, row := range ef.rows {
		lens := make([]int, ef.rowMBs)
		for k := range lens {
			lens[k] = len(ef.MBData[my*ef.rowMBs+k])
		}
		c.setRow(my, bytes.Clone(row), lens)
	}
	return c
}

// sliceFrames are the frames of the fast-path tests: the I-, B- and
// P-frames of a 64x48 clip, the I-frame coded at a fine quantiser so
// some chunks are 128 bytes or more and carry two-byte length prefixes,
// as the encoder made them (a wire row per macroblock row) and as
// ReadContainer reads them back (one wire row per frame).
func sliceFrames(tb testing.TB) []*EncodedFrame {
	tb.Helper()
	clip := video.Generate(video.SceneConfig{W: 64, H: 48, Frames: 4, Motion: video.MotionHigh, Seed: 5})
	cfg := Config{Width: 64, Height: 48, GOPSize: 4, QI: 1, QP: 4, SearchRange: 8, BFrames: 1}
	enc, err := EncodeSequenceB(clip, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	big := false
	for _, mb := range enc[0].MBData {
		big = big || len(mb) >= 128
	}
	if enc[0].Type != IFrame || !big {
		tb.Fatal("test clip has no I-frame chunk of 128 bytes or more")
	}
	var buf bytes.Buffer
	if err := WriteContainer(&buf, cfg, enc); err != nil {
		tb.Fatal(err)
	}
	_, read, err := ReadContainer(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return append(enc, read...)
}

// TestWireRowsHoldViews checks the layout the fast path relies on: each
// wire row is the wire form of its chunks, decoded here with
// encoding/binary, and every MBData entry is a view of its chunk with
// capacity equal to length.
func TestWireRowsHoldViews(t *testing.T) {
	for _, ef := range sliceFrames(t) {
		if len(ef.rows) == 0 || len(ef.rows)*ef.rowMBs != len(ef.MBData) {
			t.Fatalf("frame %d (%v): %d rows of %d macroblocks for %d", ef.Number, ef.Type, len(ef.rows), ef.rowMBs, len(ef.MBData))
		}
		for my, row := range ef.rows {
			rest := row
			for _, mb := range ef.MBData[my*ef.rowMBs : (my+1)*ef.rowMBs] {
				l, n := binary.Uvarint(rest)
				if n <= 0 || l != uint64(len(mb)) || n != len(binary.AppendUvarint(nil, l)) || len(rest) < n+len(mb) {
					t.Fatalf("frame %d row %d: bad length prefix at offset %d", ef.Number, my, len(row)-len(rest))
				}
				if cap(mb) != len(mb) || len(mb) > 0 && &rest[n] != &mb[0] {
					t.Fatalf("frame %d row %d: chunk at offset %d is not a view of the row", ef.Number, my, len(row)-len(rest))
				}
				rest = rest[n+len(mb):]
			}
			if len(rest) != 0 {
				t.Fatalf("frame %d row %d: %d bytes after the last chunk", ef.Number, my, len(rest))
			}
		}
	}
}

// TestSlicerMatchesReference compares Packetize and PacketizeInto on
// the test frames and on their chunk-by-chunk clones with the
// reference, across MTUs down to one macroblock per slice.
func TestSlicerMatchesReference(t *testing.T) {
	pool := NewBufPool()
	for _, ef := range sliceFrames(t) {
		for _, mtu := range []int{64, 150, 600, 1400} {
			want := refPacketize(ef, mtu)
			for _, f := range []*EncodedFrame{ef, ef.Clone()} {
				got, err := Packetize(f, mtu)
				if err != nil {
					t.Fatal(err)
				}
				if err := samePackets(got, want); err != nil {
					t.Fatalf("%v mtu %d: Packetize: %v", ef.Type, mtu, err)
				}
				wps, err := PacketizeInto(f, mtu, 13, pool, nil)
				if err != nil {
					t.Fatal(err)
				}
				got = got[:0]
				for i := range wps {
					got = append(got, wps[i].Packet)
				}
				if err := samePackets(got, want); err != nil {
					t.Fatalf("%v mtu %d: PacketizeInto: %v", ef.Type, mtu, err)
				}
				for i := range wps {
					pool.Put(&wps[i])
				}
			}
		}
	}
}

// editMB applies one fuzz-chosen edit to macroblock a of ef: the ways
// a caller can leave MBData out of step with the wire rows.
func editMB(ef *EncodedFrame, op, a, b byte) {
	n := len(ef.MBData)
	i, j := int(a)%n, int(b)%n
	mb := ef.MBData[i]
	switch op % 8 {
	case 0: // drop
		ef.MBData[i] = nil
	case 1: // shrink
		if len(mb) > 0 {
			ef.MBData[i] = mb[:int(b)%len(mb)]
		}
	case 2: // grow by append: reallocates, as cap == len
		ef.MBData[i] = append(mb, b)
	case 3: // replace with a fresh slice of the same bytes
		ef.MBData[i] = bytes.Clone(mb)
	case 4: // write a byte in place, into the row as well
		if len(mb) > 0 {
			mb[int(b)%len(mb)] ^= 0x5A
		}
	case 5: // swap two views
		ef.MBData[i], ef.MBData[j] = ef.MBData[j], mb
	case 6: // a chunk of 128 bytes or more: a two-byte length prefix
		ef.MBData[i] = bytes.Repeat([]byte{b}, 128+int(b))
	case 7: // drop the first byte: same end, new start
		if len(mb) > 0 {
			ef.MBData[i] = mb[1:]
		}
	}
}

// FuzzAppendSlice edits MBData of an encoder or container frame behind
// the wire rows' back and checks Packetize, PacketizeInto and AppendSlice
// against the per-chunk reference: any view that no longer matches its
// row must be marshaled from MBData, and the rest may be copied.
//
// Input: byte 0 picks the frame, byte 1 the MTU, bytes 2-3 an
// AppendSlice range; then three bytes per edit (op, macroblock, arg).
func FuzzAppendSlice(f *testing.F) {
	frames := sliceFrames(f)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 200, 3, 9})
	f.Add([]byte{1, 40, 2, 5, 0, 3, 0, 1, 4, 2})
	f.Add([]byte{2, 90, 0, 12, 2, 1, 7, 3, 2, 0})
	f.Add([]byte{0, 10, 1, 11, 4, 5, 3, 5, 1, 7})
	f.Add([]byte{0, 255, 0, 12, 6, 4, 200, 7, 8, 0, 5, 2, 9})
	f.Add([]byte{1, 30, 5, 6, 6, 0, 0, 6, 11, 127, 1, 11, 129})
	f.Add([]byte("0000%1A"))    // two one-byte-prefix views of one length swapped
	f.Add([]byte("00002#07#0")) // a long chunk grown, then cut at the front
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		ef := wireCopy(frames[int(data[0])%len(frames)])
		mtu := 64 + 8*int(data[1])
		n := len(ef.MBData)
		start := int(data[2]) % n
		count := int(data[3]) % (n - start + 1)
		for k := 4; k+2 < len(data); k += 3 {
			editMB(ef, data[k], data[k+1], data[k+2])
		}
		want := refPacketize(ef, mtu)
		got, err := Packetize(ef, mtu)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePackets(got, want); err != nil {
			t.Fatalf("Packetize: %v", err)
		}
		for _, pool := range []*BufPool{nil, NewBufPool()} {
			wps, err := PacketizeInto(ef, mtu, 13, pool, nil)
			if err != nil {
				t.Fatal(err)
			}
			got = got[:0]
			for i := range wps {
				got = append(got, wps[i].Packet)
			}
			if err := samePackets(got, want); err != nil {
				t.Fatalf("PacketizeInto: %v", err)
			}
		}
		if got, want := AppendSlice([]byte{0xEE}, ef, start, count), append([]byte{0xEE}, refSlice(ef, start, count)...); !bytes.Equal(got, want) {
			t.Fatalf("AppendSlice(%d, %d)\n got %x\nwant %x", start, count, got, want)
		}
	})
}

package codec

import (
	"bytes"
	"fmt"
	"testing"
)

// fuzzConfig is a tiny but valid stream configuration: a 2x2 macroblock
// grid keeps reassembly allocations small while exercising every header
// path.
func fuzzConfig() Config {
	return Config{Width: 32, Height: 32, GOPSize: 4, QI: 8, QP: 10, SearchRange: 4}
}

// fuzzFrame builds a well-formed encoded frame for the fuzz seeds.
func fuzzFrame(cfg Config, number int, ft FrameType) *EncodedFrame {
	total := cfg.MBCols() * cfg.MBRows()
	ef := &EncodedFrame{Number: number, Type: ft, MBData: make([][]byte, total)}
	for i := range ef.MBData {
		ef.MBData[i] = []byte{byte(number), byte(i), 0xAB}
	}
	return ef
}

// FuzzReadContainer feeds arbitrary bytes to the container parser. The
// parser must reject or accept without panicking or over-allocating,
// and anything it accepts must serialise back.
func FuzzReadContainer(f *testing.F) {
	cfg := fuzzConfig()
	var buf bytes.Buffer
	if err := WriteContainer(&buf, cfg, []*EncodedFrame{fuzzFrame(cfg, 0, IFrame), fuzzFrame(cfg, 1, PFrame)}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])   // truncated mid-frame
	f.Add(valid[:5])              // truncated mid-header
	f.Add([]byte("TVID"))         // magic only
	f.Add([]byte("nope"))         // wrong magic
	f.Add(bytes.Repeat(valid, 2)) // trailing garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, frames, err := ReadContainer(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteContainer(&out, cfg, frames); err != nil {
			t.Fatalf("accepted container failed to re-serialise: %v", err)
		}
	})
}

// refAdd is the reassembler's original algorithm, kept as the
// reference FuzzReassembler compares Add against: ParsePacket and
// SliceMBs over the payload, then one copy per chunk.
func refAdd(frames map[int]*EncodedFrame, total int, payload []byte) error {
	p, err := ParsePacket(payload)
	if err != nil {
		return err
	}
	mbStart, chunks, err := SliceMBs(payload)
	if err != nil {
		return err
	}
	if mbStart < 0 || len(chunks) > total || mbStart > total-len(chunks) {
		return fmt.Errorf("codec: slice range [%d,%d) exceeds %d macroblocks", mbStart, mbStart+len(chunks), total)
	}
	f := frames[p.FrameNumber]
	if f == nil {
		f = &EncodedFrame{Number: p.FrameNumber, Type: p.Type, MBData: make([][]byte, total)}
		frames[p.FrameNumber] = f
	}
	for i, c := range chunks {
		f.MBData[mbStart+i] = append([]byte(nil), c...)
	}
	return nil
}

// sameFrames reports the first difference between the reassembler's
// views and the reference frames: which frames are held, frame headers,
// chunk bytes, and which chunks are nil.
func sameFrames(r *Reassembler, want map[int]*EncodedFrame) error {
	if len(r.frames) != len(want) {
		return fmt.Errorf("%d frames, want %d", len(r.frames), len(want))
	}
	for n, w := range want {
		if err := sameFrame(r.Frame(n), w); err != nil {
			return fmt.Errorf("frame %d: %v", n, err)
		}
	}
	return nil
}

// sameFrame reports the first difference between two frames.
func sameFrame(g, w *EncodedFrame) error {
	if g == nil {
		return fmt.Errorf("missing")
	}
	if g.Number != w.Number || g.Type != w.Type || len(g.MBData) != len(w.MBData) {
		return fmt.Errorf("header (%d, %v, %d), want (%d, %v, %d)", g.Number, g.Type, len(g.MBData), w.Number, w.Type, len(w.MBData))
	}
	for j := range w.MBData {
		if (g.MBData[j] == nil) != (w.MBData[j] == nil) || !bytes.Equal(g.MBData[j], w.MBData[j]) {
			return fmt.Errorf("chunk %d = %x (nil %v), want %x (nil %v)", j, g.MBData[j], g.MBData[j] == nil, w.MBData[j], w.MBData[j] == nil)
		}
	}
	return nil
}

// cloneFrame deep-copies a frame, keeping nil chunks nil.
func cloneFrame(ef *EncodedFrame) *EncodedFrame {
	c := &EncodedFrame{Number: ef.Number, Type: ef.Type, MBData: make([][]byte, len(ef.MBData))}
	for j, mb := range ef.MBData {
		if mb != nil {
			c.MBData[j] = append([]byte{}, mb...)
		}
	}
	return c
}

// heldSlices is the largest number of slices any frame of r holds.
func heldSlices(r *Reassembler) int {
	most := 0
	for _, f := range r.frames {
		most = max(most, len(f.slices))
	}
	return most
}

// maxFuzzPayloads is how many payloads one FuzzReassembler input
// carries: enough for a slice to cover several held ones and, on the
// 4-macroblock fuzz frame, for overlapping slices to force compaction.
const maxFuzzPayloads = 8

// joinPayloads encodes payloads as one fuzz input: each is prefixed by
// its length in one byte.
func joinPayloads(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = append(append(out, byte(len(p))), p...)
	}
	return out
}

// splitPayloads is the inverse of joinPayloads for arbitrary input: it
// yields at most maxFuzzPayloads payloads and cuts a length that runs
// past the end of the input short.
func splitPayloads(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 && len(out) < maxFuzzPayloads {
		n := min(int(data[0]), len(data)-1)
		out = append(out, data[1:1+n])
		data = data[1+n:]
	}
	return out
}

// FuzzReassembler is differential: up to maxFuzzPayloads arbitrary
// slice payloads — the path an eavesdropper's garbled ciphertext takes —
// go through Reassembler.Add and through refAdd in turn. Add must give
// the same error (or none) for each payload, and the views Frame builds
// must equal the reference frames, with the same nil and non-nil
// chunks. No frame may hold more slices than it has macroblocks, and a
// view taken earlier must not change under later Adds. Damaged payloads
// must come back as errors, never as panics or out-of-range writes.
func FuzzReassembler(f *testing.F) {
	cfg := fuzzConfig()
	ef := fuzzFrame(cfg, 3, IFrame)
	ef.MBData[1] = nil // an empty chunk: lost on the wire, nil after reassembly
	pkts, err := Packetize(ef, 64)
	if err != nil {
		f.Fatal(err)
	}
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	for i, p := range pkts {
		next := pkts[(i+1)%len(pkts)].Payload
		f.Add(joinPayloads(p.Payload, next))
		if len(p.Payload) > 3 {
			f.Add(joinPayloads(next, p.Payload[:len(p.Payload)-3])) // truncated slice
		}
	}
	f.Add(joinPayloads(huge, pkts[0].Payload))
	other := AppendSlice(nil, fuzzFrame(cfg, 4, PFrame), 1, 2)
	f.Add(joinPayloads(other, pkts[0].Payload)) // two frames
	// Overlapping slices: [0,2) is covered by [0,4); then five slices
	// that no later one covers, one more than the frame's macroblocks.
	whole := fuzzFrame(cfg, 5, PFrame)
	f.Add(joinPayloads(
		AppendSlice(nil, whole, 0, 2), AppendSlice(nil, whole, 0, 4),
		AppendSlice(nil, whole, 0, 2), AppendSlice(nil, whole, 1, 2),
		AppendSlice(nil, whole, 2, 2), AppendSlice(nil, whole, 3, 1),
		AppendSlice(nil, whole, 0, 1), AppendSlice(nil, whole, 1, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReassembler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := cfg.MBCols() * cfg.MBRows()
		ref := map[int]*EncodedFrame{}
		var views, copies []*EncodedFrame
		for _, payload := range splitPayloads(data) {
			err := r.Add(payload)
			want := refAdd(ref, total, payload)
			if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
				t.Fatalf("Add(%x) = %v, reference %v", payload, err, want)
			}
			if err := sameFrames(r, ref); err != nil {
				t.Fatalf("after Add(%x): %v", payload, err)
			}
			if n := heldSlices(r); n > total {
				t.Fatalf("after Add(%x): a frame holds %d slices, more than its %d macroblocks", payload, n, total)
			}
			for n := range ref {
				v := r.Frame(n)
				views, copies = append(views, v), append(copies, cloneFrame(v))
			}
		}
		for i, v := range views {
			if err := sameFrame(v, copies[i]); err != nil {
				t.Fatalf("view of frame %d changed under later Adds: %v", v.Number, err)
			}
		}
	})
}

package codec

import (
	"bytes"
	"testing"

	"repro/internal/video"
)

// testFrames returns encoded I, P and B frames for packetizer tests.
func testFrames(t testing.TB) []*EncodedFrame {
	t.Helper()
	clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 6, Motion: video.MotionMedium, Seed: 9})
	cfg := smallConfig(4)
	cfg.BFrames = 1
	enc, err := EncodeSequenceB(clip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byType := map[FrameType]*EncodedFrame{}
	for _, ef := range enc {
		byType[ef.Type] = ef
	}
	out := []*EncodedFrame{}
	for _, ft := range []FrameType{IFrame, PFrame, BFrame} {
		ef := byType[ft]
		if ef == nil {
			t.Fatalf("no %v frame in test clip", ft)
		}
		out = append(out, ef)
	}
	return out
}

// TestPacketizeIntoMatchesPacketize is the wire-format golden test: the
// zero-copy packetizer must produce byte-identical payloads and
// identical slice boundaries to Packetize for I, P and B frames, across
// MTUs and headrooms, pooled and pool-less.
func TestPacketizeIntoMatchesPacketize(t *testing.T) {
	pool := NewBufPool()
	for _, ef := range testFrames(t) {
		for _, mtu := range []int{64, 200, 1400} {
			for _, headroom := range []int{0, 12, 13} {
				want, err := Packetize(ef, mtu)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []*BufPool{nil, pool} {
					got, err := PacketizeInto(ef, mtu, headroom, p, nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%v mtu=%d: %d packets, want %d", ef.Type, mtu, len(got), len(want))
					}
					for i := range got {
						if got[i].Packet.FrameNumber != want[i].FrameNumber ||
							got[i].Packet.Type != want[i].Type ||
							got[i].Packet.MBStart != want[i].MBStart ||
							got[i].Packet.MBCount != want[i].MBCount {
							t.Fatalf("%v mtu=%d packet %d: header mismatch", ef.Type, mtu, i)
						}
						if !bytes.Equal(got[i].Payload, want[i].Payload) {
							t.Fatalf("%v mtu=%d packet %d: payload differs", ef.Type, mtu, i)
						}
						if got[i].Headroom != headroom {
							t.Fatalf("packet %d headroom %d, want %d", i, got[i].Headroom, headroom)
						}
						wire := got[i].Wire(len(got[i].Payload))
						if len(wire) != headroom+len(got[i].Payload) {
							t.Fatalf("packet %d wire length %d", i, len(wire))
						}
						if !bytes.Equal(wire[headroom:], want[i].Payload) {
							t.Fatalf("packet %d: wire payload region differs", i)
						}
					}
					if p != nil {
						for i := range got {
							p.Put(&got[i])
						}
					}
				}
			}
		}
	}
}

// TestPacketizeIntoPadInPlace checks the contract that payloads can be
// extended to the MTU within the buffer (no reallocation, headroom
// preserved).
func TestPacketizeIntoPadInPlace(t *testing.T) {
	pool := NewBufPool()
	ef := testFrames(t)[1] // P-frame: small packets, far below MTU
	const mtu, headroom = 1400, 12
	wps, err := PacketizeInto(ef, mtu, headroom, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wps {
		wp := &wps[i]
		if cap(wp.Payload) < mtu {
			t.Fatalf("packet %d payload cap %d < mtu", i, cap(wp.Payload))
		}
		grown := wp.Payload[:mtu]
		if &grown[0] != &wp.Payload[0] {
			t.Fatalf("packet %d: padding reallocated", i)
		}
		wire := wp.Wire(mtu)
		if len(wire) != headroom+mtu {
			t.Fatalf("packet %d: wire len %d", i, len(wire))
		}
		if !bytes.Equal(wire[headroom:], grown) {
			t.Fatalf("packet %d: wire and padded payload disagree", i)
		}
		pool.Put(wp)
	}
}

// TestPacketizeIntoZeroAllocs pins the steady-state packetize path at
// zero allocations once the pool and destination slice are warm.
func TestPacketizeIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts are not meaningful")
	}
	pool := NewBufPool()
	ef := testFrames(t)[0]
	var wps []WirePacket
	run := func() {
		var err error
		wps, err = PacketizeInto(ef, 1400, 12, pool, wps[:0])
		if err != nil {
			t.Fatal(err)
		}
		for i := range wps {
			pool.Put(&wps[i])
		}
	}
	run() // warm pool and dst capacity
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("PacketizeInto allocates %.1f times per frame, want 0", allocs)
	}
}

// TestUvarintLenMatchesEncoding cross-checks the size function against
// the encoder on boundary values.
func TestUvarintLenMatchesEncoding(t *testing.T) {
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1 << 21, 1<<63 - 1, 1 << 63} {
		got := uvarintLen(v)
		if want := len(appendUvarint(nil, v)); got != want {
			t.Fatalf("uvarintLen(%d) = %d, encoded length %d", v, got, want)
		}
	}
}

// BenchmarkPacketizeInto packetizes one frame per op: a 96x96 I-frame
// of a few dozen large chunks, and a CIF P-frame of 396 chunks of a few
// bytes each, the shape of the upload clip, where the per-chunk cost
// dominates.
func BenchmarkPacketizeInto(b *testing.B) {
	b.Run("96x96-I", func(b *testing.B) { benchPacketizeInto(b, testFrames(b)[0]) })
	b.Run("CIF-P", func(b *testing.B) {
		encoded, err := EncodeSequence(benchFrames(b, 2), DefaultConfig(30))
		if err != nil {
			b.Fatal(err)
		}
		if encoded[1].Type != PFrame {
			b.Fatalf("frame 1 is %v, want a P-frame", encoded[1].Type)
		}
		benchPacketizeInto(b, encoded[1])
	})
}

func benchPacketizeInto(b *testing.B, ef *EncodedFrame) {
	pool := NewBufPool()
	var wps []WirePacket
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		wps, err = PacketizeInto(ef, 1400, 12, pool, wps[:0])
		if err != nil {
			b.Fatal(err)
		}
		for j := range wps {
			pool.Put(&wps[j])
		}
	}
}

// BenchmarkPacketize measures the allocating packetizer for comparison
// (exact-size buffers since this PR, but still one allocation per
// packet).
func BenchmarkPacketize(b *testing.B) {
	ef := testFrames(b)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Packetize(ef, 1400); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBufPoolPutHardening pins the ownership guards Put makes no
// assumptions about: nil packets, double Puts, buffers issued by a
// different pool and pool-less buffers must all be no-ops on the pool's
// free list — the runtime contract the bufown analyzer checks statically.
func TestBufPoolPutHardening(t *testing.T) {
	ef := testFrames(t)[0]
	pool := NewBufPool()
	other := NewBufPool()

	// Nil packet and zero-value packet: no panic, no pool entry.
	pool.Put(nil)
	pool.Put(&WirePacket{})

	// Double Put must insert the buffer exactly once: after the second
	// Put, two gets must return distinct buffers (a poisoned free list
	// would hand the same wireBuf out twice).
	wps, err := PacketizeInto(ef, 200, 4, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	wp := &wps[0]
	buf := wp.buf
	pool.Put(wp)
	if wp.buf != nil || wp.Payload != nil {
		t.Fatal("Put did not detach the packet")
	}
	pool.Put(wp) // double Put: must be a no-op
	a, b := pool.get(1), pool.get(1)
	if a == b {
		t.Fatal("double Put inserted the buffer twice")
	}
	// sync.Pool drops items at random under -race, so only a normal
	// build can require that the Put buffer comes back.
	if !raceEnabled && a != buf && b != buf {
		t.Fatal("first Put never reached the pool")
	}

	// Foreign buffer: detached from the packet but never enters this
	// pool's free list.
	fw, err := PacketizeInto(ef, 200, 4, other, nil)
	if err != nil {
		t.Fatal(err)
	}
	foreign := &fw[0]
	foreignBuf := foreign.buf
	pool.Put(foreign)
	if foreign.buf != nil {
		t.Fatal("foreign Put did not detach the packet")
	}
	for i := 0; i < 64; i++ {
		if pool.get(1) == foreignBuf {
			t.Fatal("foreign buffer entered the wrong pool")
		}
	}

	// Pool-less buffers have no owner: Put anywhere detaches only.
	nw, err := PacketizeInto(ef, 200, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	nb := nw[0].buf
	pool.Put(&nw[0])
	for i := 0; i < 64; i++ {
		if pool.get(1) == nb {
			t.Fatal("pool-less buffer entered a pool")
		}
	}
}

// TestWirePacketRetain pins the sanctioned-retain path: Retain detaches
// the buffer (a later Put is a no-op), the payload stays valid, and the
// buffer never rejoins the pool.
func TestWirePacketRetain(t *testing.T) {
	ef := testFrames(t)[0]
	pool := NewBufPool()
	wps, err := PacketizeInto(ef, 200, 4, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	wp := &wps[0]
	retained := wp.buf
	payload := append([]byte(nil), wp.Payload...)
	wp.Retain()
	if wp.buf != nil {
		t.Fatal("Retain did not detach the buffer")
	}
	if !bytes.Equal(wp.Payload, payload) {
		t.Fatal("Retain invalidated the payload")
	}
	pool.Put(wp) // must be a no-op after Retain
	if !bytes.Equal(wp.Payload, payload) {
		t.Fatal("Put after Retain invalidated the payload")
	}
	for i := 0; i < 64; i++ {
		if pool.get(1) == retained {
			t.Fatal("retained buffer rejoined the pool")
		}
	}
	var nilWP *WirePacket
	nilWP.Retain() // must not panic
}

package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/rtp"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// Golden wire-format equivalence: the zero-copy packetize+encrypt path
// (PacketizeInto → zeroPad → MarshalInto → encrypt-in-place) must put
// byte-identical datagrams/segments on the wire as the original
// allocate-per-packet path (Packetize → copy → pad-with-make → encrypt →
// Marshal). The legacy construction is replicated inside the tests so the
// equivalence stays checkable forever. It packetizes clones of the
// frames: a clone has no wire rows, so its payloads are marshaled chunk
// by chunk and never come from the copy-a-row path under test.

// goldenSession encodes a small clip with B-frames enabled so the wire
// format is exercised across all three frame types (I, P and B), and
// wraps it in a live-backend session (no Medium needed).
func goldenSession(t *testing.T, policy vcrypt.Policy) Session {
	t.Helper()
	clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 12, Motion: video.MotionMedium, Seed: 7})
	cfg := codec.Config{Width: 96, Height: 96, GOPSize: 12, QI: 8, QP: 10, SearchRange: 16, BFrames: 1}
	encoded, err := codec.EncodeSequenceB(clip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	types := map[codec.FrameType]bool{}
	for _, ef := range encoded {
		types[ef.Type] = true
	}
	for _, ft := range []codec.FrameType{codec.IFrame, codec.PFrame, codec.BFrame} {
		if !types[ft] {
			t.Fatalf("golden clip missing frame type %v", ft)
		}
	}
	key := make([]byte, policy.Alg.KeySize())
	for i := range key {
		key[i] = byte(i)
	}
	return Session{
		Config:  cfg,
		Encoded: encoded,
		FPS:     30,
		MTU:     600, // small enough that frames split into several slices
		Policy:  policy,
		Key:     key,
	}
}

// legacyDatagrams rebuilds the RTP datagrams exactly as the pre-zero-copy
// LiveUDPSend did: fresh payload copy per packet, pad with make, encrypt
// the copy in place, then Packet.Marshal into yet another allocation.
func legacyDatagrams(t *testing.T, s Session) [][]byte {
	t.Helper()
	cipher, err := vcrypt.NewCipher(s.Policy.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	selector, err := vcrypt.NewSelector(s.Policy)
	if err != nil {
		t.Fatal(err)
	}
	seqr := rtp.NewSequencer(0x7561) // the SSRC the live senders use
	var out [][]byte
	seq := 0
	for fi, ef := range s.Encoded {
		pkts, err := codec.Packetize(ef.Clone(), s.MTU)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkt := range pkts {
			payload := append([]byte(nil), pkt.Payload...)
			if s.PadToMTU && len(payload) < s.MTU {
				payload = append(payload, make([]byte, s.MTU-len(payload))...)
			}
			encrypted := selector.ShouldEncrypt(pkt.IsIFrame())
			if encrypted {
				cipher.EncryptPacket(uint64(seq), payload[:s.Policy.EncryptSpan(len(payload))])
			}
			out = append(out, seqr.Next(payload, float64(fi)/s.FPS, encrypted).Marshal())
			seq++
		}
	}
	return out
}

// captureDatagrams runs send against a raw capture socket and returns the
// datagrams it put on the wire, indexed by RTP sequence number so UDP
// reordering cannot produce false mismatches.
func captureDatagrams(t *testing.T, count int, send func(addr string) error) map[uint16][]byte {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan map[uint16][]byte, 1)
	go func() {
		got := make(map[uint16][]byte, count)
		buf := make([]byte, 65536)
		for len(got) < count {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // UDP deadline set cannot fail
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				break
			}
			if n < rtp.HeaderSize {
				continue
			}
			seq := binary.BigEndian.Uint16(buf[2:4])
			if _, dup := got[seq]; !dup {
				got[seq] = append([]byte(nil), buf[:n]...)
			}
		}
		done <- got
	}()
	if err := send(conn.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	return <-done
}

func compareWire(t *testing.T, want [][]byte, got map[uint16][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("captured %d datagrams, want %d", len(got), len(want))
	}
	for i, w := range want {
		g, ok := got[uint16(i)]
		if !ok {
			t.Fatalf("datagram with sequence %d never captured", i)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("datagram %d differs from legacy path:\n got %x\nwant %x", i, g, w)
		}
	}
}

// goldenAlgs are the cipher algorithms the golden UDP tests cover.
var goldenAlgs = []vcrypt.Algorithm{vcrypt.AES128, vcrypt.AES256, vcrypt.TripleDES, vcrypt.AES128CTR, vcrypt.AES256CTR}

// goldenVariants are the padded and header-only policy shapes, where the
// in-place zeroPad and the partial encrypt span could plausibly diverge
// from the legacy bytes, plus a policy that encrypts nothing.
var goldenVariants = []struct {
	name   string
	policy vcrypt.Policy
	pad    bool
}{
	{"pad-to-mtu", vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES128}, true},
	{"header-only", vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES128, HeaderOnlyBytes: vcrypt.MinHeaderOnlyBytes}, false},
	{"header-only-padded", vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256, HeaderOnlyBytes: vcrypt.MinHeaderOnlyBytes}, true},
	{"plaintext", vcrypt.Policy{Mode: vcrypt.ModeNone, Alg: vcrypt.AES128}, false},
}

// checkUDPWire sends s with the plain or the reliable UDP sender and
// compares every datagram with the legacy construction. Paced runs raise
// the frame rate to 1000 fps so they finish in milliseconds; the legacy
// construction stamps the same RTP timestamps from s.FPS.
func checkUDPWire(t *testing.T, s Session, reliable, pace bool) {
	t.Helper()
	if pace {
		s.FPS = 1000
	}
	want := legacyDatagrams(t, s)
	got := captureDatagrams(t, len(want), func(addr string) error {
		var err error
		if reliable {
			_, err = LiveUDPSendReliable(s, addr, "", pace, ReliableUDPOptions{Drain: 20 * time.Millisecond})
		} else {
			_, err = LiveUDPSend(s, addr, "", pace)
		}
		return err
	})
	compareWire(t, want, got)
}

// TestLiveUDPSendWireIdentical checks the zero-copy UDP sender against the
// legacy construction for every cipher algorithm, with a mixed
// encrypted/plaintext policy so both sides of the selection guard cross
// the wire.
func TestLiveUDPSendWireIdentical(t *testing.T) {
	for _, alg := range goldenAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			checkUDPWire(t, goldenSession(t, vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: alg}), false, false)
		})
	}
}

// TestLiveUDPSendWireIdenticalVariants covers the padded, header-only and
// plaintext policy shapes.
func TestLiveUDPSendWireIdenticalVariants(t *testing.T) {
	for _, tc := range goldenVariants {
		t.Run(tc.name, func(t *testing.T) {
			s := goldenSession(t, tc.policy)
			s.PadToMTU = tc.pad
			checkUDPWire(t, s, false, false)
		})
	}
}

// TestLiveUDPSendReliableWireIdentical checks the reliable sender's
// zero-copy path (whose I-frame datagrams outlive the pool in the
// retransmit buffer) against the same golden bytes.
func TestLiveUDPSendReliableWireIdentical(t *testing.T) {
	checkUDPWire(t, goldenSession(t, vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES128}), true, false)
}

// TestLiveUDPSendPacedWireIdentical repeats the golden checks with pacing
// on: the paced sender prepares and encrypts each frame before its
// pacing sleep and writes it after, and must still put the legacy bytes
// on the wire for every algorithm, every policy shape and both senders.
func TestLiveUDPSendPacedWireIdentical(t *testing.T) {
	for _, alg := range goldenAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			checkUDPWire(t, goldenSession(t, vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: alg}), false, true)
		})
	}
	for _, tc := range goldenVariants {
		t.Run(tc.name, func(t *testing.T) {
			s := goldenSession(t, tc.policy)
			s.PadToMTU = tc.pad
			checkUDPWire(t, s, false, true)
		})
	}
	t.Run("reliable", func(t *testing.T) {
		checkUDPWire(t, goldenSession(t, vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES128}), true, true)
	})
}

// legacySegments rebuilds the framed HTTP upload segments the way the
// allocate-per-packet path did: Packetize, a fresh payload copy per
// packet, encrypt the copy in place, then frame it with WriteSegment.
func legacySegments(t *testing.T, s Session) [][]byte {
	t.Helper()
	cipher, err := vcrypt.NewCipher(s.Policy.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	selector, err := vcrypt.NewSelector(s.Policy)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	seq := uint64(0)
	for _, ef := range s.Encoded {
		pkts, err := codec.Packetize(ef.Clone(), s.MTU)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkt := range pkts {
			payload := append([]byte(nil), pkt.Payload...)
			encrypted := selector.ShouldEncrypt(pkt.IsIFrame())
			if encrypted {
				cipher.EncryptPacket(seq, payload[:s.Policy.EncryptSpan(len(payload))])
			}
			var seg bytes.Buffer
			if err := WriteSegment(&seg, seq, encrypted, payload); err != nil {
				t.Fatal(err)
			}
			out = append(out, seg.Bytes())
			seq++
		}
	}
	return out
}

// TestLiveHTTPUploadWireIdentical checks the HTTP upload path against an
// oracle built in the test (legacySegments): buildSegments' store holds
// exactly the legacy segment bytes, and a ResumableHTTPUpload delivers
// the same sequence numbers, encrypted flags and payload bytes to the
// server's wire tap.
func TestLiveHTTPUploadWireIdentical(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256CTR}
	s := goldenSession(t, pol)
	want := legacySegments(t, s)
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != len(want) {
		t.Fatalf("buildSegments made %d segments, want %d", len(segs), len(want))
	}
	for i, seg := range segs {
		if !bytes.Equal(seg.wire, want[i]) {
			t.Fatalf("segment %d store bytes differ:\n got %x\nwant %x", i, seg.wire, want[i])
		}
	}
	srv, err := NewHTTPUploadServer(s.Config, pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	srv.Tap = func(seq uint64, encrypted bool, payload []byte) {
		var seg bytes.Buffer
		WriteSegment(&seg, seq, encrypted, payload) //nolint:errcheck // bytes.Buffer writes cannot fail
		got = append(got, seg.Bytes())
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	if _, err := uploadOnce(s, hs.URL, nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("tapped %d segments, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("segment %d differs on the wire:\n got %x\nwant %x", i, got[i], want[i])
		}
	}
}

// TestSendPathSteadyStateAllocs pins the composed per-packet send path —
// PacketizeInto, in-place zero-pad, MarshalInto, encrypt, pool return —
// at zero allocations per steady-state iteration. This is the
// transport-level half of the zero-copy guarantee; the codec- and
// cipher-level halves are pinned in their own packages.
func TestSendPathSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts are meaningless")
	}
	s := goldenSession(t, vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES128})
	s.PadToMTU = true
	cipher, err := vcrypt.NewCipher(s.Policy.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	selector, err := vcrypt.NewSelector(s.Policy)
	if err != nil {
		t.Fatal(err)
	}
	seqr := rtp.NewSequencer(0x7561)
	pool := codec.NewBufPool()
	var wps []codec.WirePacket
	var packets, bytesOut int
	run := func() {
		seq := uint64(0)
		for fi, ef := range s.Encoded {
			var err error
			wps, err = codec.PacketizeInto(ef, s.MTU, rtp.HeaderSize, pool, wps[:0])
			if err != nil {
				t.Fatal(err)
			}
			for i := range wps {
				pkt := &wps[i]
				payload := pkt.Payload
				if len(payload) < s.MTU {
					payload = zeroPad(payload, s.MTU-len(payload))
				}
				encrypted := selector.ShouldEncrypt(pkt.IsIFrame())
				out := seqr.Next(payload, float64(fi)/s.FPS, encrypted).MarshalInto(pkt.Wire(len(payload)))
				if encrypted {
					cipher.EncryptPacket(seq, out[rtp.HeaderSize:][:s.Policy.EncryptSpan(len(payload))])
				}
				packets++
				bytesOut += len(out)
				pool.Put(pkt)
				seq++
			}
		}
	}
	run() // warm the pool and the packet slice
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("send path allocates %.2f times per clip in steady state, want 0", avg)
	}
	if packets == 0 || bytesOut == 0 {
		t.Fatal("send path produced no packets")
	}
}

// TestZeroPad checks the shared padding helper against the obvious
// construction for lengths around the static block size.
func TestZeroPad(t *testing.T) {
	for _, n := range []int{0, 1, 7, len(zeroBlock) - 1, len(zeroBlock), len(zeroBlock) + 1, 3*len(zeroBlock) + 5} {
		seed := []byte{0xAA, 0xBB}
		got := zeroPad(append([]byte(nil), seed...), n)
		want := append(append([]byte(nil), seed...), make([]byte, n)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("zeroPad(seed, %d) = %d bytes, mismatch", n, len(got))
		}
	}
	// Padding a dirty pooled buffer must yield zeros, not stale bytes.
	dirty := make([]byte, 0, 64)
	dirty = dirty[:32]
	for i := range dirty {
		dirty[i] = 0xFF
	}
	dirty = dirty[:8]
	padded := zeroPad(dirty, 16)
	for i := 8; i < 24; i++ {
		if padded[i] != 0 {
			t.Fatalf("byte %d after zeroPad is %#x, want 0", i, padded[i])
		}
	}
}

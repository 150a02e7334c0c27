package transport

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/rtp"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// The receive core (rxSession.deliver) is checked two ways: FuzzRxCore
// drives it directly against a reference built from a seen-set, a plain
// DecryptPacket on a copy and a second reassembler, and
// TestReceiversAgree runs one clip through all three receivers that
// share it and requires the same frames and counts from each.

var rxCoreClip struct {
	once sync.Once
	s    Session
}

// rxCoreSession is a 96x96 clip of 12 frames at MTU 300, about 40
// packets, encoded once per test binary.
func rxCoreSession(t *testing.T) Session {
	t.Helper()
	rxCoreClip.once.Do(func() {
		clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 12, Motion: video.MotionMedium, Seed: 11})
		cfg := codec.Config{Width: 96, Height: 96, GOPSize: 6, QI: 8, QP: 10, SearchRange: 16}
		encoded, err := codec.EncodeSequence(clip, cfg)
		if err != nil {
			panic(err)
		}
		key := make([]byte, vcrypt.AES128CTR.KeySize())
		for i := range key {
			key[i] = byte(3 * i)
		}
		rxCoreClip.s = Session{Config: cfg, Encoded: encoded, FPS: 30, MTU: 300, Key: key}
	})
	return rxCoreClip.s
}

// rxArrivals turns the fuzzer's ops into an arrival order over n
// packets: every packet once in order, then each pair of op bytes
// loses, duplicates or swaps arrivals. The first arrival stays packet
// 0, so 16-bit sequence extension is exact even across a wrap: the
// clip is far shorter than half an epoch.
func rxArrivals(n int, ops []byte) []int {
	arr := make([]int, n)
	for i := range arr {
		arr[i] = i
	}
	for k := 0; k+1 < len(ops) && len(arr) > 1; k += 2 {
		p := 1 + int(ops[k+1])%(len(arr)-1)
		d := 1 + int(ops[k]>>2)%16
		switch ops[k] & 3 {
		case 0: // loss
			arr = append(arr[:p], arr[p+1:]...)
		case 1: // duplicate, delivered up to 16 arrivals later
			q := min(p+d, len(arr))
			arr = append(arr[:q], append([]int{arr[p]}, arr[q:]...)...)
		case 2: // reorder
			q := min(p+d, len(arr)-1)
			arr[p], arr[q] = arr[q], arr[p]
		}
	}
	return arr
}

// checkRxCore runs one arrival schedule through deliver and through the
// reference, comparing every outcome, the counters, the dedup window
// and the reassembled frames.
func checkRxCore(t *testing.T, wrap uint16, opts uint8, ops []byte) {
	s := rxCoreSession(t)
	s.Policy = vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES128CTR}
	if opts&1 != 0 {
		s.Policy.Mode = vcrypt.ModeIFrames
	}
	s.Policy.HeaderOnlyBytes = []int{0, vcrypt.MinHeaderOnlyBytes, 100, 0}[opts>>1&3]
	eavesdropper := opts&8 != 0
	// The stream starts up to 48 packets before the 16-bit wrap.
	base := uint64(1<<16) - 1 - uint64(wrap%48)
	segs, err := buildSegments(s, base)
	if err != nil {
		t.Fatal(err)
	}
	cipher, err := vcrypt.NewCipher(s.Policy.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	open := opener{cipher: cipher, hdrOnly: s.Policy.HeaderOnlyBytes}
	if eavesdropper {
		open.cipher = nil
	}
	// The window starts at 0, as in a receiver whose stream begins
	// mid-epoch, or at the stream's first sequence, as after an HTTP
	// restart, where in-order arrivals take the window's fast path.
	floor := uint64(0)
	if opts&16 != 0 {
		floor = base
	}
	var rx rxSession
	if err := rx.reset(s.Config, floor); err != nil {
		t.Fatal(err)
	}
	refAsm, err := codec.NewReassembler(s.Config)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	var want rxSession // the reference's counters
	var ext seqExtender
	for i, idx := range rxArrivals(len(segs), ops) {
		seg := segs[idx]
		seq := ext.Extend(uint16(seg.seq))
		if seq != seg.seq {
			t.Fatalf("arrival %d: seq %d extended to %d", i, seg.seq, seq)
		}
		wantFirst, wantUsable := !seen[seq], false
		if !wantFirst {
			want.dups++
		} else {
			seen[seq] = true
			want.received++
			want.bytes += int64(len(seg.payload()))
			if !seg.encrypted || !eavesdropper {
				plain := append([]byte(nil), seg.payload()...)
				if seg.encrypted {
					cipher.DecryptPacket(seq, plain[:s.Policy.EncryptSpan(len(plain))])
				}
				if wantUsable = refAsm.Add(plain) == nil; wantUsable {
					want.usable++
				}
			}
		}
		payload := append([]byte(nil), seg.payload()...)
		first, usable := rx.deliver(open, seq, seg.encrypted, payload)
		if first != wantFirst || usable != wantUsable {
			t.Fatalf("arrival %d (seq %d): deliver = (%v, %v), want (%v, %v)", i, seq, first, usable, wantFirst, wantUsable)
		}
	}
	if rx.received != want.received || rx.usable != want.usable || rx.dups != want.dups || rx.bytes != want.bytes {
		t.Fatalf("counters received/usable/dups/bytes %d/%d/%d/%d, want %d/%d/%d/%d",
			rx.received, rx.usable, rx.dups, rx.bytes, want.received, want.usable, want.dups, want.bytes)
	}
	for seq := range seen {
		if !rx.window.Seen(seq) {
			t.Fatalf("delivered seq %d not seen by the window", seq)
		}
	}
	if !eavesdropper && rx.usable != rx.received {
		t.Fatalf("keyed receiver: %d of %d first deliveries usable", rx.usable, rx.received)
	}
	if err := sameFrames(rx.asm.Frames(len(s.Encoded)), refAsm.Frames(len(s.Encoded))); err != nil {
		t.Fatal(err)
	}
}

// sameFrames reports the first difference between two reassembled
// clips: frame presence, number, type, or any macroblock's bytes
// (including nil, the lost marker, against empty).
func sameFrames(a, b []*codec.EncodedFrame) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d frames against %d", len(a), len(b))
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return fmt.Errorf("frame %d present in only one clip", i)
		}
		if a[i] == nil {
			continue
		}
		if a[i].Number != b[i].Number || a[i].Type != b[i].Type || len(a[i].MBData) != len(b[i].MBData) {
			return fmt.Errorf("frame %d: header differs", i)
		}
		for j, mb := range a[i].MBData {
			if (mb == nil) != (b[i].MBData[j] == nil) || !bytes.Equal(mb, b[i].MBData[j]) {
				return fmt.Errorf("frame %d macroblock %d differs", i, j)
			}
		}
	}
	return nil
}

func FuzzRxCore(f *testing.F) {
	f.Add(uint16(0), uint8(0), []byte{})
	f.Add(uint16(20), uint8(16), []byte{1, 3, 1, 3, 2, 10, 0, 7, 0x45, 20})
	f.Add(uint16(5), uint8(3), []byte{2, 4, 0x3e, 4, 1, 9, 1, 9})
	f.Add(uint16(40), uint8(28), []byte{0, 1, 0, 2, 1, 30, 0x7e, 15})
	f.Add(uint16(47), uint8(9), []byte{0x41, 2, 0x82, 3, 0xc3, 4, 0x04, 5})
	// Arrivals 0, 2, 1, 2: the repeat of 2 comes when the floor has just
	// reached it, with 2 still held above the floor before compaction.
	f.Add(uint16(1), uint8(16), []byte{2, 0, 5, 0})
	f.Fuzz(func(t *testing.T, wrap uint16, opts uint8, ops []byte) {
		checkRxCore(t, wrap, opts, ops)
	})
}

// TestRxCoreRandomSchedules runs the fuzz check over a few hundred
// generated schedules on every go test.
func TestRxCoreRandomSchedules(t *testing.T) {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 300; i++ {
		ops := make([]byte, next()%64)
		for j := range ops {
			ops[j] = byte(next())
		}
		checkRxCore(t, uint16(next()), uint8(next()), ops)
	}
}

// TestReceiversAgree sends one clip with the same duplicated arrivals to
// LiveReceiver, IngestServer and HTTPUploadServer: reordered for the two
// UDP receivers, in order for HTTP, which answers a gap with 409. All
// three must count the same captured, usable and duplicate packets and
// reassemble byte-identical frames.
func TestReceiversAgree(t *testing.T) {
	s := rxCoreSession(t)
	s.Policy = vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES128CTR, HeaderOnlyBytes: 64}
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, total := len(segs), len(s.Encoded)
	// Every third segment arrives twice; the replay of the first ten
	// at the end are duplicates too.
	var inOrder []int
	for i := range segs {
		inOrder = append(inOrder, i)
		if i%3 == 0 {
			inOrder = append(inOrder, i)
		}
	}
	for i := 0; i < 10; i++ {
		inOrder = append(inOrder, i)
	}
	dups := len(inOrder) - n
	// The UDP receivers get adjacent arrivals swapped.
	reordered := append([]int(nil), inOrder...)
	for i := 1; i+1 < len(reordered); i += 2 {
		reordered[i], reordered[i+1] = reordered[i+1], reordered[i]
	}

	type result struct {
		captured, usable, dups int
		frames                 []*codec.EncodedFrame
	}
	var got [3]result

	// LiveReceiver.
	rx, err := NewLiveReceiver(s.Config, s.Policy.Alg, s.Key, "127.0.0.1:0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	rx.SetHeaderOnlyBytes(s.Policy.HeaderOnlyBytes)
	// IngestServer.
	srv, err := NewIngestServer(ingestTestConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const ssrc = 0x7561
	for _, addr := range []string{rx.Addr(), srv.Addr()} {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, rtp.HeaderSize+s.MTU+64)
		for k, i := range reordered {
			sendSeg(t, conn, buf, ssrc, segs[i])
			if k%16 == 15 {
				time.Sleep(time.Millisecond)
			}
		}
		conn.Close()
	}
	waitFor(t, 5*time.Second, func() bool {
		c, _ := rx.Stats()
		return c == n && rx.Duplicates() == dups
	}, "LiveReceiver to take every arrival")
	got[0].captured, got[0].usable = rx.Stats()
	got[0].dups, got[0].frames = rx.Duplicates(), rx.Frames(total)
	waitFor(t, 5*time.Second, func() bool {
		st, ok := srv.SessionStats(ssrc)
		return ok && st.Received == n && st.Duplicates == dups
	}, "IngestServer to take every arrival")
	st, _ := srv.SessionStats(ssrc)
	got[1] = result{st.Received, st.Usable, st.Duplicates, srv.SessionFrames(ssrc, total)}

	// HTTPUploadServer, straight through its handler.
	hs, err := NewHTTPUploadServer(s.Config, s.Policy.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	hs.HeaderOnlyBytes = s.Policy.HeaderOnlyBytes
	var body bytes.Buffer
	for _, i := range inOrder {
		if err := WriteSegment(&body, segs[i].seq, segs[i].encrypted, segs[i].payload()); err != nil {
			t.Fatal(err)
		}
	}
	w := httptest.NewRecorder()
	hs.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/", &body))
	if w.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", w.Code, w.Body)
	}
	// Segments counts every arrival, and the answer's count the usable
	// ones.
	var usable int
	var next uint64
	if _, err := fmt.Sscanf(w.Body.String(), "ok %d next %d", &usable, &next); err != nil || next != uint64(n) {
		t.Fatalf("upload answered %q (%v), want next %d", w.Body, err, n)
	}
	got[2] = result{hs.Segments() - hs.DuplicateSegments(), usable, hs.DuplicateSegments(), hs.Frames(total)}

	for k, name := range []string{"LiveReceiver", "IngestServer", "HTTPUploadServer"} {
		r := got[k]
		if r.captured != n || r.usable != n || r.dups != dups {
			t.Errorf("%s: captured/usable/duplicates %d/%d/%d, want %d/%d/%d", name, r.captured, r.usable, r.dups, n, n, dups)
		}
		if err := sameFrames(r.frames, got[0].frames); err != nil {
			t.Errorf("%s against LiveReceiver: %v", name, err)
		}
	}
	if err := sameFrames(got[0].frames, s.Encoded); err != nil {
		t.Errorf("LiveReceiver against the sent clip: %v", err)
	}
}

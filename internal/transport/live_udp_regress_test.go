package transport

import (
	"net"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/rtp"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// regressPayloads packetizes the session's frames and returns the first
// n payloads — valid codec packets the reassembler accepts.
func regressPayloads(t *testing.T, s Session, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for _, ef := range s.Encoded {
		pkts, err := codec.Packetize(ef, s.MTU)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			out = append(out, p.Payload)
		}
		if len(out) >= n {
			return out[:n]
		}
	}
	t.Fatalf("clip yields only %d packets, need %d", len(out), n)
	return nil
}

// sendRaw marshals one RTP packet and writes it on conn.
func sendRaw(t *testing.T, conn net.Conn, buf []byte, seq64 uint64, encrypted bool, payload []byte) {
	t.Helper()
	p := rtp.Packet{
		PayloadType: rtp.PayloadTypeVideo,
		Marker:      encrypted,
		Sequence:    uint16(seq64),
		Timestamp:   uint32(seq64),
		SSRC:        0x7561,
		Payload:     payload,
	}
	if _, err := conn.Write(p.MarshalInto(buf)); err != nil {
		t.Fatal(err)
	}
}

// A packet reordered across the 16-bit wrap must decrypt under its
// ORIGINAL epoch. The old extension logic pinned every arrival at or
// above the running maximum, so a straggler from just before the wrap
// was pushed a whole epoch forward: wrong IV, garbled payload, and
// maxSeq leaping by ~65536 (which then detonated the NACK scan).
func TestLiveReceiverReorderedWrapDecrypts(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionLow, pol)
	rx, err := NewLiveReceiver(s.Config, pol.Alg, s.Key, "127.0.0.1:0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	cipher, err := vcrypt.NewCipher(pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	// Arrival order: two packets before the wrap, two after it, then a
	// straggler from before the wrap arriving late. Each is encrypted
	// under the extended sequence the sender would have used.
	seqs := []uint64{65534, 65535, 65536, 65537, 65533}
	payloads := regressPayloads(t, s, len(seqs))
	conn, err := net.Dial("udp", rx.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, rtp.HeaderSize+s.MTU+64)
	for i, seq64 := range seqs {
		payload := append([]byte(nil), payloads[i]...)
		cipher.EncryptPacket(seq64, payload)
		sendRaw(t, conn, buf, seq64, true, payload)
		time.Sleep(2 * time.Millisecond) // preserve the crafted arrival order
	}
	if err := rx.WaitForPackets(len(seqs), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	captured, usable := rx.Stats()
	if captured != len(seqs) {
		t.Fatalf("captured %d of %d", captured, len(seqs))
	}
	// The straggler only reassembles if it decrypted under 65533, not
	// under 65533+65536.
	if usable != len(seqs) {
		t.Fatalf("usable %d of %d: straggler decrypted in the wrong epoch", usable, len(seqs))
	}
	rx.mu.Lock()
	maxSeq := rx.maxSeq
	rx.mu.Unlock()
	if maxSeq != 65538 {
		t.Fatalf("maxSeq %d, want 65538: reordered straggler extended the epoch", maxSeq)
	}
	if d := rx.Duplicates(); d != 0 {
		t.Fatalf("%d arrivals misclassified as duplicates", d)
	}
}

// A spurious sequence jump (sender restart, corrupted header) used to
// turn every NACK tick into a rescan of [0, maxSeq) that requested tens
// of thousands of never-sent sequences. The scan must instead abandon
// everything more than maxNackWindow behind the head.
func TestNACKStormBoundedAfterSeqJump(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeNone, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionLow, pol)
	rx, err := NewLiveReceiver(s.Config, pol.Alg, s.Key, "127.0.0.1:0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	rx.EnableNACK(10 * time.Millisecond)
	raddr, err := net.ResolveUDPAddr("udp", rx.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// A listening socket plays the sender, so the receiver's NACKs come
	// back to it.
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payloads := regressPayloads(t, s, 4)
	buf := make([]byte, rtp.HeaderSize+s.MTU+64)
	for i, seq := range []uint64{0, 1, 2} {
		sendRaw(t, conn, buf, seq, false, payloads[i])
	}
	if err := rx.WaitForPackets(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// The jump: wire sequence 40000 lands as extended 40000 and drags
	// maxSeq with it, leaving a 37997-sequence hole behind.
	sendRaw(t, conn, buf, 40000, false, payloads[3])
	if err := rx.WaitForPackets(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	nacked := make(map[uint64]bool)
	deadline := time.Now().Add(300 * time.Millisecond)
	rbuf := make([]byte, 65536)
	for time.Now().Before(deadline) {
		conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck // UDP deadline set cannot fail
		n, rerr := conn.Read(rbuf)
		if rerr != nil {
			continue
		}
		seqs, ok := parseNACK(rbuf[:n])
		if !ok {
			continue
		}
		if len(seqs) > maxNackBatch {
			t.Fatalf("NACK datagram carries %d sequences, cap is %d", len(seqs), maxNackBatch)
		}
		for _, q := range seqs {
			nacked[q] = true
		}
	}
	if len(nacked) == 0 {
		t.Fatal("no NACKs observed; the loop is not running")
	}
	lo := uint64(40001 - maxNackWindow)
	for q := range nacked {
		if q < lo {
			t.Fatalf("NACK for abandoned sequence %d (window floor %d): the jump triggered a full rescan", q, lo)
		}
	}
	if len(nacked) > maxNackWindow {
		t.Fatalf("%d distinct sequences NACKed, window is %d", len(nacked), maxNackWindow)
	}
}

// Over a long session the receiver's bookkeeping must stay bounded: the
// dedup window compacts delivered sequences into its floor, and NACK
// retry state is pruned on receipt and abandoned below the scan window.
// The old code kept one map entry per delivered sequence and one per
// recovered loss, forever.
func TestLiveReceiverLongSessionMemoryBounded(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeNone, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionLow, pol)
	rx, err := NewLiveReceiver(s.Config, pol.Alg, s.Key, "127.0.0.1:0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	rx.EnableNACK(5 * time.Millisecond)
	conn, err := net.Dial("udp", rx.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A tiny opaque payload: the bookkeeping under test (dedup window,
	// NACK maps) is upstream of the reassembler, and small packets keep
	// the 50k-packet blast fast even under -race.
	payload := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	buf := make([]byte, rtp.HeaderSize+s.MTU+64)
	// Phase 1: 10k packets with ~1% holes the sender never fills.
	for seq := uint64(0); seq < 10000; seq++ {
		if seq%97 == 13 {
			continue
		}
		sendRaw(t, conn, buf, seq, false, payload)
		if seq%500 == 499 {
			time.Sleep(time.Millisecond) // let the receiver drain
		}
	}
	// Phase 2: a spurious forward jump, then a long in-order tail that
	// pushes the head past the dedup span so floor compaction engages.
	for seq := uint64(40000); seq <= 80000; seq++ {
		sendRaw(t, conn, buf, seq, false, payload)
		if seq%1000 == 999 {
			time.Sleep(time.Millisecond)
		}
	}
	// Wait for the receiver to go quiet (UDP on loopback may still drop
	// under this blast; the bounds must hold regardless of what landed).
	prev := -1
	for i := 0; i < 200; i++ {
		c, _ := rx.Stats()
		if c == prev && c > 0 {
			break
		}
		prev = c
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // one more NACK tick past quiescence

	rx.mu.Lock()
	pending := len(rx.rx.window.above)
	floor := rx.rx.window.Floor()
	nackTry := len(rx.nackTry)
	nackAt := len(rx.nackAt)
	maxSeq := rx.maxSeq
	nackFloor := rx.nackFloor
	rx.mu.Unlock()
	if maxSeq < 75000 {
		t.Fatalf("too little traffic survived to exercise the bounds (maxSeq %d)", maxSeq)
	}
	if pending > defaultSeqSpan {
		t.Fatalf("dedup window holds %d sparse entries, span is %d", pending, defaultSeqSpan)
	}
	if floor < maxSeq-defaultSeqSpan {
		t.Fatalf("window floor %d lags maxSeq %d by more than the span", floor, maxSeq)
	}
	bound := maxNackWindow + maxNackBatch
	if nackTry > bound {
		t.Fatalf("nackTry holds %d entries, bound is %d", nackTry, bound)
	}
	if nackAt > bound {
		t.Fatalf("nackAt holds %d entries, bound is %d", nackAt, bound)
	}
	if nackFloor < maxSeq-maxNackWindow {
		t.Fatalf("nackFloor %d lags maxSeq %d beyond the scan window", nackFloor, maxSeq)
	}
}

package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/ledger"
	"repro/internal/netem"
	"repro/internal/rtp"
	"repro/internal/vcrypt"
)

// The live backend mirrors the simulated pipeline over real sockets: the
// sender unicasts every RTP packet to the legitimate receiver and to the
// eavesdropper's socket (standing in for the broadcast nature of open
// WiFi, where tcpdump on a nearby device captures the same frames), each
// endpoint applies its own netem loss filter, and only the receiver can
// decrypt marked payloads.

// LiveSendReport summarises a live transmission.
type LiveSendReport struct {
	Packets     int
	Encrypted   int
	Bytes       int
	Elapsed     time.Duration
	CryptoTime  time.Duration // wall time spent inside the cipher
	Retransmits int           // NACK-driven I-frame retransmissions (reliable mode)
	Dropped     int           // packets the sender-side conditioner discarded
	Duplicated  int           // extra copies the conditioner injected
}

// LiveUDPSend streams the session's packets to the receiver and
// eavesdropper addresses. With pace=true packets are released on the
// frame-capture schedule (real-time streaming); otherwise back to back
// (file upload).
func LiveUDPSend(s Session, rxAddr, evAddr string, pace bool) (LiveSendReport, error) {
	return liveUDPSend(s, rxAddr, evAddr, pace, nil)
}

// liveUDPSend is the one frame loop behind both UDP senders (rel is nil
// for the plain one). A frame's datagrams are prepared in order — pad,
// select, marshal into headroom, encrypt in place, ledger — before the
// sleep until the frame is due, and written after it: encryption runs
// inside the pacing wait, on the sender's goroutine, and only for the
// packets the selector marks.
func liveUDPSend(s Session, rxAddr, evAddr string, pace bool, rel *retransmitter) (LiveSendReport, error) {
	var rep LiveSendReport
	if err := s.Validate(); err != nil {
		return rep, err
	}
	cipher, err := vcrypt.NewCipher(s.Policy.Alg, s.Key)
	if err != nil {
		return rep, err
	}
	selector, err := vcrypt.NewSelector(s.Policy)
	if err != nil {
		return rep, err
	}
	tag := "udp"
	if rel != nil {
		tag = "udp-reliable"
	}
	ledger.Emit(ledger.EventPolicy, tag, 0, 0, s.Policy.Name())
	raddr, err := net.ResolveUDPAddr("udp", rxAddr)
	if err != nil {
		return rep, fmt.Errorf("transport: resolve receiver: %w", err)
	}
	rxConn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return rep, fmt.Errorf("transport: dial receiver: %w", err)
	}
	defer rxConn.Close()
	var evConn net.Conn
	if evAddr != "" {
		evConn, err = net.Dial("udp", evAddr)
		if err != nil {
			return rep, fmt.Errorf("transport: dial eavesdropper: %w", err)
		}
		defer evConn.Close()
	}
	if rel != nil {
		rel.stopc = make(chan struct{})
		rel.wg.Add(1)
		go rel.serve(rxConn)
		defer rel.stop()
	}

	seqr := rtp.NewSequencer(0x7561) // arbitrary SSRC
	pool := codec.NewBufPool()
	var wps []codec.WirePacket
	var outs [][]byte
	start := time.Now()
	seq := 0
	for fi, ef := range s.Encoded {
		wps, err = codec.PacketizeInto(ef, s.MTU, rtp.HeaderSize, pool, wps[:0])
		if err != nil {
			return rep, err
		}
		base := seq
		outs = outs[:0]
		for i := range wps {
			payload := wps[i].Payload
			if s.PadToMTU && len(payload) < s.MTU {
				payload = zeroPad(payload, s.MTU-len(payload))
			}
			encrypted := selector.ShouldEncrypt(wps[i].IsIFrame())
			// Marshal first — the RTP header lands in the buffer's
			// headroom, the payload already aliases the rest — then
			// encrypt the payload region in place: same wire bytes as
			// encrypt-then-marshal, zero copies.
			out := seqr.Next(payload, float64(fi)/s.FPS, encrypted).MarshalInto(wps[i].Wire(len(payload)))
			if encrypted {
				t0 := time.Now()
				cipher.EncryptPacket(uint64(seq), out[rtp.HeaderSize:][:s.Policy.EncryptSpan(len(payload))])
				rep.CryptoTime += time.Since(t0)
				rep.Encrypted++
				mUDPEncrypted.Inc()
				if span := s.Policy.EncryptSpan(len(payload)); span < len(payload) {
					ledger.Emit(ledger.EventHeaderOnly, tag, uint64(seq), uint64(span), "")
				}
			} else {
				ledger.Emit(ledger.EventPlainPacket, tag, uint64(seq), uint64(len(payload)), "")
			}
			outs = append(outs, out)
			seq++
		}
		if pace {
			due := start.Add(time.Duration(float64(fi) / s.FPS * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		for i, out := range outs {
			pkt := &wps[i]
			send := true
			if rel != nil {
				if pkt.IsIFrame() {
					// Buffer before the first write, so a NACK can
					// never fetch a datagram that has not been sent.
					rel.mu.Lock()
					rel.iBuf[uint64(base+i)] = out
					rel.mu.Unlock()
					//lint:retain(I-frame retransmit queue holds the marshaled bytes until the drain ends)
					pkt.Retain()
				}
				if rel.cond != nil {
					imp := rel.cond.Next(uint64(base + i))
					if send = !imp.Drop; !send {
						rep.Dropped++
					} else {
						time.Sleep(imp.Delay)
						for k := 0; k < imp.Duplicates; k++ {
							rxConn.Write(out) //nolint:errcheck // duplicates are opportunistic
							rep.Duplicated++
						}
					}
				}
			}
			if send {
				if _, err = rxConn.Write(out); err != nil {
					err = fmt.Errorf("transport: send to receiver: %w", err)
				}
			}
			if err == nil && evConn != nil {
				// Broadcast overhear: the same datagram reaches the
				// eavesdropper's capture socket.
				if _, err = evConn.Write(out); err != nil {
					err = fmt.Errorf("transport: send to eavesdropper: %w", err)
				}
			}
			if err != nil {
				// Recycle this datagram and the rest of the frame unsent.
				pool.Put(pkt)
				for j := i + 1; j < len(wps); j++ {
					pool.Put(&wps[j])
				}
				return rep, err
			}
			rep.Packets++
			rep.Bytes += len(out)
			mUDPPacketsSent.Inc()
			mUDPBytesSent.Add(int64(len(out)))
			// Put after Retain is a no-op: retained I-frame buffers live
			// on in the retransmit map, the rest recycle at once.
			pool.Put(pkt)
		}
	}
	if rel != nil {
		// Keep answering NACKs while the receiver notices its gaps.
		time.Sleep(rel.drain)
		rel.stop()
		rep.Retransmits = rel.retransmits
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// LiveReceiver captures RTP packets on a UDP socket, applies a loss
// filter, decrypts marked payloads when it has the key (the legitimate
// receiver) or discards them as erasures when it does not (the
// eavesdropper), and reassembles frames.
type LiveReceiver struct {
	conn   *net.UDPConn
	cipher *vcrypt.Cipher // nil for the eavesdropper

	mu       sync.Mutex
	cond     *sync.Cond // signalled on every state change and on shutdown
	dropper  netem.Dropper
	asm      *codec.Reassembler
	received int
	captured int
	dups     int // arrivals whose sequence was already delivered
	closed   bool
	dead     bool // loop exited (socket closed)
	done     chan struct{}
	hdrOnly  int

	// window is the per-sequence dedup set. It is always active (allocated
	// by the constructor), not just under NACK: link-layer duplication
	// and retransmit races must never inflate the captured/usable counts,
	// only the dups counter. Delivered sequences compact into a contiguous
	// floor, so the window's memory stays bounded over arbitrarily long
	// sessions.
	window *seqWindow

	// Selective-retransmit state (EnableNACK).
	maxSeq    uint64
	haveSeq   bool
	nackFloor uint64 // sequences below this are never NACKed again
	nackTry   map[uint64]int
	nackAt    map[uint64]time.Time // first-NACK time per missing sequence
	nackFrom  netip.AddrPort       // sender address learned from arrivals
}

// SetHeaderOnlyBytes tells the receiver the sender uses a header-only
// policy encrypting just the first n bytes of each marked payload
// (0 = whole payload). Must match the sender's Policy.HeaderOnlyBytes.
func (r *LiveReceiver) SetHeaderOnlyBytes(n int) {
	r.mu.Lock()
	r.hdrOnly = n
	r.mu.Unlock()
}

// NewLiveReceiver opens a listening socket. Pass a nil key to create an
// eavesdropper (marked packets become erasures). addr may use port 0.
func NewLiveReceiver(cfg codec.Config, alg vcrypt.Algorithm, key []byte, addr string, loss float64, seed uint64) (*LiveReceiver, error) {
	asm, err := codec.NewReassembler(cfg)
	if err != nil {
		return nil, err
	}
	filter, err := netem.NewFilter(loss, seed)
	if err != nil {
		return nil, err
	}
	var cipher *vcrypt.Cipher
	if key != nil {
		cipher, err = vcrypt.NewCipher(alg, key)
		if err != nil {
			return nil, err
		}
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	r := &LiveReceiver{conn: conn, dropper: filter, cipher: cipher, asm: asm, window: newSeqWindow(defaultSeqSpan), done: make(chan struct{})}
	r.cond = sync.NewCond(&r.mu)
	go r.loop()
	return r, nil
}

// Addr returns the bound address to hand to the sender.
func (r *LiveReceiver) Addr() string { return r.conn.LocalAddr().String() }

// SetDropper replaces the receiver's loss model (the constructor installs
// a Bernoulli filter) with any netem.Dropper — a Gilbert–Elliott bursty
// channel, a targeted SeqBurst, etc. Call before packets arrive.
func (r *LiveReceiver) SetDropper(d netem.Dropper) {
	r.mu.Lock()
	r.dropper = d
	r.mu.Unlock()
}

// EnableNACK turns on gap detection and selective retransmit requests:
// every interval the receiver NACKs the sequences it has not seen below
// the highest received one, addressed to the packet source. The sender
// honours NACKs only for I-frame packets (the frames whose loss wrecks a
// whole GOP), so requests for unbuffered P packets age out after a few
// tries. Arrivals are always deduplicated by extended sequence (see
// Stats), so retransmitted packets are counted and decoded exactly once.
// Call before sending starts.
func (r *LiveReceiver) EnableNACK(interval time.Duration) {
	if interval <= 0 {
		interval = 20 * time.Millisecond
	}
	r.mu.Lock()
	if r.nackTry == nil {
		r.nackTry = make(map[uint64]int)
		r.nackAt = make(map[uint64]time.Time)
	}
	r.mu.Unlock()
	go r.nackLoop(interval)
}

// maxNackTries bounds how often one missing sequence is requested; P
// packets are never retransmitted, so the receiver must stop asking.
const maxNackTries = 8

// maxNackBatch bounds the sequences carried in one NACK datagram.
const maxNackBatch = 256

// maxNackWindow bounds how far behind the stream head the NACK scan
// reaches. A sender restart or a spurious sequence jump can move maxSeq
// arbitrarily far ahead of the received prefix; sequences that fall more
// than this far behind are abandoned rather than probed, so a single bad
// jump can no longer turn every tick into an O(maxSeq) rescan that NACKs
// tens of thousands of never-sent sequences.
const maxNackWindow = 4096

func (r *LiveReceiver) nackLoop(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
		}
		r.mu.Lock()
		peer := r.nackFrom
		var missing []uint64
		if r.haveSeq && peer.IsValid() {
			// Snap the floor into the scan window first, dropping the
			// bookkeeping of everything it abandons so the maps stay
			// bounded by the window.
			if r.maxSeq > maxNackWindow && r.nackFloor < r.maxSeq-maxNackWindow {
				r.pruneNACKBelow(r.maxSeq - maxNackWindow)
			}
			// Advance the floor past everything delivered or given up on;
			// the scan then covers at most maxNackWindow sequences instead
			// of rescanning [0, maxSeq) every tick.
			for r.nackFloor < r.maxSeq && (r.window.Seen(r.nackFloor) || r.nackTry[r.nackFloor] >= maxNackTries) {
				delete(r.nackTry, r.nackFloor)
				delete(r.nackAt, r.nackFloor)
				r.nackFloor++
			}
			for seq := r.nackFloor; seq < r.maxSeq && len(missing) < maxNackBatch; seq++ {
				if !r.window.Seen(seq) && r.nackTry[seq] < maxNackTries {
					if r.nackTry[seq] == 0 {
						// First request: anchor the recovery-delay clock.
						r.nackAt[seq] = time.Now()
					}
					r.nackTry[seq]++
					missing = append(missing, seq)
				}
			}
		}
		r.mu.Unlock()
		if len(missing) > 0 {
			mNACKsRequested.Add(int64(len(missing)))
			r.conn.WriteToUDPAddrPort(marshalNACK(missing), peer) //nolint:errcheck // best effort, like the medium
		}
	}
}

// pruneNACKBelow abandons retransmit bookkeeping for every sequence below
// lo, walking whichever is smaller — the gap or the maps — so a huge
// spurious jump is cheap to absorb. Caller holds r.mu.
func (r *LiveReceiver) pruneNACKBelow(lo uint64) {
	if lo-r.nackFloor <= uint64(len(r.nackTry)+len(r.nackAt)) {
		for s := r.nackFloor; s < lo; s++ {
			delete(r.nackTry, s)
			delete(r.nackAt, s)
		}
	} else {
		for s := range r.nackTry {
			if s < lo {
				delete(r.nackTry, s)
			}
		}
		for s := range r.nackAt {
			if s < lo {
				delete(r.nackAt, s)
			}
		}
	}
	r.nackFloor = lo
}

func (r *LiveReceiver) loop() {
	defer func() {
		r.mu.Lock()
		r.dead = true
		r.cond.Broadcast()
		r.mu.Unlock()
		close(r.done)
	}()
	buf := make([]byte, 65536)
	// ext maps the RTP 16-bit sequence onto the sender's 64-bit cipher IV
	// counter by nearest-epoch extension, so a straggler reordered across
	// an epoch wrap still decrypts under its original IV (see seqExtender).
	var ext seqExtender
	for {
		// The sender address comes back as a netip.AddrPort value, so
		// no *net.UDPAddr is allocated per datagram.
		n, from, err := r.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		pkt, err := rtp.Parse(buf[:n])
		if err != nil {
			continue
		}
		// Sequence extension happens before the loss decision so
		// sequence-addressed droppers (burst over one I-frame) see every
		// arrival, like the channel would.
		seq64 := ext.Extend(pkt.Sequence)
		r.mu.Lock()
		dropper := r.dropper
		r.mu.Unlock()
		if dropper != nil && dropper.DropSeq(seq64) {
			continue
		}
		// Decrypt works in the read buffer and Add copies what it keeps,
		// so the buffer is reusable for the next datagram.
		payload := pkt.Payload
		r.mu.Lock()
		r.nackFrom = from
		if r.window.Mark(seq64) {
			// Duplicate delivery (retransmit raced the original, or
			// link-layer duplication): count it separately and ignore it
			// so captured/usable reflect first deliveries only.
			r.dups++
			mRxDuplicates.Inc()
			r.cond.Broadcast()
			r.mu.Unlock()
			continue
		}
		if seq64 >= r.maxSeq {
			r.maxSeq = seq64 + 1
		}
		r.haveSeq = true
		if r.nackAt != nil {
			if t0, ok := r.nackAt[seq64]; ok {
				mNACKRecoverySeconds.Observe(time.Since(t0).Seconds())
				delete(r.nackAt, seq64)
			}
			// The sequence arrived: its retry count must not linger, or
			// the map grows one entry per recovered loss forever.
			delete(r.nackTry, seq64)
		}
		r.captured++
		mRxCaptured.Inc()
		if pkt.Encrypted() {
			if r.cipher == nil {
				r.cond.Broadcast()
				r.mu.Unlock()
				continue // eavesdropper: erasure
			}
			span := len(payload)
			if r.hdrOnly > 0 && r.hdrOnly < span {
				span = r.hdrOnly
			}
			r.cipher.DecryptPacket(seq64, payload[:span])
		}
		if err := r.asm.Add(payload); err == nil {
			r.received++
			mRxUsable.Inc()
		}
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// WaitForPackets blocks until the receiver has captured at least n
// packets, the timeout elapses, or the receiver is closed. Waiters are
// woken by arrival signalling (no polling).
func (r *LiveReceiver) WaitForPackets(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		// Broadcast under the lock so a waiter between its deadline
		// check and cond.Wait cannot miss the wakeup.
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.captured < n {
		if r.dead {
			return errors.New("transport: receiver closed while waiting for packets")
		}
		if !time.Now().Before(deadline) {
			return errors.New("transport: timed out waiting for packets")
		}
		r.cond.Wait()
	}
	return nil
}

// Frames returns a snapshot of the reassembled (possibly partial)
// encoded frames; packets that arrive later do not change it.
func (r *LiveReceiver) Frames(total int) []*codec.EncodedFrame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.asm.Frames(total)
}

// Stats returns (captured, usable) packet counts. Both count first
// deliveries only: an arrival whose sequence was already delivered
// (link-layer duplication, a retransmit racing the original) is
// tracked by Duplicates instead of inflating either count.
func (r *LiveReceiver) Stats() (captured, usable int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.captured, r.received
}

// Duplicates returns how many arrivals repeated an already-delivered
// sequence.
func (r *LiveReceiver) Duplicates() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dups
}

// NACK datagrams travel receiver→sender on the same socket pair:
//
//	"TVNK" (4) | count (2, big endian) | count × seq (8, big endian)
//
// The magic cannot begin a valid RTP packet (version bits would be 1),
// so senders and receivers cheaply tell the two apart.
var nackMagic = [4]byte{'T', 'V', 'N', 'K'}

func marshalNACK(seqs []uint64) []byte {
	if len(seqs) > maxNackBatch {
		seqs = seqs[:maxNackBatch]
	}
	out := make([]byte, 6+8*len(seqs))
	copy(out[:4], nackMagic[:])
	binary.BigEndian.PutUint16(out[4:6], uint16(len(seqs)))
	for i, s := range seqs {
		binary.BigEndian.PutUint64(out[6+8*i:], s)
	}
	return out
}

func parseNACK(data []byte) ([]uint64, bool) {
	if len(data) < 6 || [4]byte(data[:4]) != nackMagic {
		return nil, false
	}
	n := int(binary.BigEndian.Uint16(data[4:6]))
	if len(data) < 6+8*n {
		return nil, false
	}
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = binary.BigEndian.Uint64(data[6+8*i:])
	}
	return seqs, true
}

// ReliableUDPOptions tunes LiveUDPSendReliable.
type ReliableUDPOptions struct {
	// Drain is how long the sender keeps servicing NACKs after the last
	// packet (default 500ms).
	Drain time.Duration
	// Conditioner, when non-nil, impairs the sender-side link: packets
	// may be dropped before the socket (lost on the air), delayed
	// (jitter/reordering), or duplicated. Dropped I-frame packets still
	// enter the retransmit buffer, so NACKs recover them.
	Conditioner *netem.Conditioner
}

// LiveUDPSendReliable streams like LiveUDPSend but adds a NACK-driven
// selective-retransmit loop for I-frame packets: every transmitted
// I-frame packet is buffered, a reader goroutine services the receiver's
// NACKs during the transfer and for a drain period after it, and each
// retransmission reuses the original RTP bytes so the receiver's
// per-sequence decrypt and dedup stay correct. P packets are never
// retransmitted — losing one costs a few macroblocks, while losing an
// I-frame burst wrecks the whole GOP (the asymmetry the paper's policies
// are built on). The receiver must have EnableNACK active.
func LiveUDPSendReliable(s Session, rxAddr, evAddr string, pace bool, opts ReliableUDPOptions) (LiveSendReport, error) {
	drain := opts.Drain
	if drain <= 0 {
		drain = 500 * time.Millisecond
	}
	return liveUDPSend(s, rxAddr, evAddr, pace, &retransmitter{drain: drain, cond: opts.Conditioner, iBuf: make(map[uint64][]byte)})
}

// retransmitter is what the reliable sender adds to the plain one: the
// I-frame retransmit buffer, the reader goroutine that serves NACKs from
// it, and the sender-side link conditioner.
type retransmitter struct {
	drain time.Duration
	cond  *netem.Conditioner

	mu          sync.Mutex
	iBuf        map[uint64][]byte // extended seq → original marshaled RTP bytes
	retransmits int

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// stop ends the NACK reader and waits for it; later calls are no-ops.
func (r *retransmitter) stop() {
	r.stopOnce.Do(func() { close(r.stopc); r.wg.Wait() })
}

// serve answers NACKs from the retransmit buffer until stop is called.
func (r *retransmitter) serve(conn *net.UDPConn) {
	defer r.wg.Done()
	buf := make([]byte, 65536)
	for {
		conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck // UDP deadline set cannot fail
		n, err := conn.Read(buf)
		if err != nil {
			select {
			case <-r.stopc:
				return
			default:
				continue // deadline tick; keep listening
			}
		}
		seqs, ok := parseNACK(buf[:n])
		if !ok {
			continue
		}
		// Snapshot the buffered packets under the lock, write after
		// releasing it: the send loop stores fresh I-frame packets
		// under the same mutex, and a UDP write stalled by the OS
		// would otherwise stall the send loop with it.
		var resend [][]byte
		r.mu.Lock()
		for _, seq := range seqs {
			if out, have := r.iBuf[seq]; have {
				resend = append(resend, out)
				r.retransmits++
				mNACKRetransmits.Inc()
			}
		}
		r.mu.Unlock()
		for _, out := range resend {
			conn.Write(out) //nolint:errcheck // best effort, like the medium
		}
	}
}

// Close shuts the socket down.
func (r *LiveReceiver) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	err := r.conn.Close()
	<-r.done
	return err
}

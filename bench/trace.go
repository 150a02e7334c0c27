package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"os"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/ledger"
	"repro/internal/rtp"
	"repro/internal/transport"
	"repro/internal/vcrypt"
)

// The traced run follows the timed window in the same command. It
// replays the workload at reduced size in one process over loopback
// sockets, calling the layers' public functions itself in the order the
// transport code calls them, and records a span around every call. The
// program itself carries no tracing; a layer's busy time is what the
// spans around its calls cover, minus what their child spans cover.

// layer is what a span's self time is charged to. Spans stay free of
// pointers so a replay's hundreds of thousands of them cost the garbage
// collector nothing to scan.
type layer uint8

const (
	lPacketize  layer = iota // PacketizeInto, and BufPool.Put
	lSelect                  // Selector.ShouldEncrypt
	lFrame                   // RTP MarshalInto, or WriteSegment minus its socket writes
	lPrefetch                // Cipher.Prefetch (paced sender, off the critical path)
	lEncrypt                 // Cipher.EncryptPacket
	lWrite                   // one write call on a socket
	lRead                    // one read call on a socket
	lParse                   // rtp.Parse, or ReadSegment minus its socket reads
	lDecrypt                 // Cipher.DecryptPacket
	lReassemble              // Reassembler.Add
	sSession                 // one sender session or upload
	sFrame                   // one frame of a session
	sReceive                 // one receiver's whole replay
	numLayers
)

var layerNames = [numLayers]string{
	"codec.packetize", "vcrypt.select", "transport.frame", "vcrypt.prefetch", "vcrypt.encrypt",
	"transport.socket_write", "transport.socket_read", "transport.parse", "vcrypt.decrypt",
	"codec.reassemble", "session", "frame", "receive",
}

// shareGroup is one share of a side's end-to-end CPU.
type shareGroup struct {
	metric string
	layers []layer
}

// clientLayers and serverLayers group the layers into the shares of each
// side's end-to-end CPU. Prefetch counts with encryption: moving work
// off the critical path does not make it free.
var (
	clientLayers = []shareGroup{
		{"client.packetize.share", []layer{lPacketize}},
		{"client.select.share", []layer{lSelect}},
		{"client.frame.share", []layer{lFrame}},
		{"client.encrypt.share", []layer{lPrefetch, lEncrypt}},
		{"client.socket_write.share", []layer{lWrite}},
	}
	serverLayers = []shareGroup{
		{"server.socket_read.share", []layer{lRead}},
		{"server.parse.share", []layer{lParse}},
		{"server.decrypt.share", []layer{lDecrypt}},
		{"server.reassemble.share", []layer{lReassemble}},
	}
)

// span is one timed call. Spans of one session or upload share Trace;
// Parent is the enclosing span (layer call → frame → session), 0 at a
// root. Times are ns since the replay started.
type span struct {
	Trace, ID, Parent int64
	Start, End        int64
	Layer             layer
}

type tracer struct {
	t0  time.Time
	ids atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanLog collects one goroutine's spans. A nil *spanLog records
// nothing, so the timed and traced runs share their send code.
type spanLog struct {
	tr    *tracer
	spans []span
}

// log returns a span log with room for about n spans.
func (tr *tracer) log(n int) *spanLog { return &spanLog{tr: tr, spans: make([]span, 0, n)} }

func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.tr.t0))
}

// open allocates a span that will enclose others.
func (l *spanLog) open() (id, start int64) {
	if l == nil {
		return 0, 0
	}
	return l.tr.ids.Add(1), l.now()
}

func (l *spanLog) close(trace, id, parent int64, name layer, start int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Layer: name, Start: start, End: l.now()})
}

// leaf records a span with no children that began at start.
func (l *spanLog) leaf(trace, parent int64, name layer, start int64) {
	if l == nil {
		return
	}
	l.close(trace, l.tr.ids.Add(1), parent, name, start)
}

// overhead is what recording a span costs, measured on empty spans:
// inside is the part that falls within the span's own interval, gap the
// part between one span's end and the next one's start, which falls
// within the enclosing span.
type overhead struct{ inside, gap float64 }

func calibrate() overhead {
	const n = 1 << 14
	l := newTracer().log(n)
	for range n {
		l.leaf(0, 0, lSelect, l.now())
	}
	inside := make([]float64, n)
	gap := make([]float64, n-1)
	for i, s := range l.spans {
		inside[i] = float64(s.End - s.Start)
		if i > 0 {
			gap[i-1] = float64(s.Start - l.spans[i-1].End)
		}
	}
	return overhead{percentile(inside, 50), percentile(gap, 50)}
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its child spans cover, less the recording overhead that falls inside
// it: its own, and the gap around each child.
func selfTimes(spans []span, oh overhead) [numLayers]float64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out [numLayers]float64
	for _, s := range spans {
		k := kids[s.ID]
		out[s.Layer] += float64(s.End-s.Start-covered(k, s.Start, s.End)) - oh.inside - float64(len(k))*oh.gap
	}
	for i := range out {
		out[i] = max(out[i], 0)
	}
	return out
}

// covered is the length of the union of the intervals clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// shares divides each group's busy time per unit of work by the side's
// end-to-end CPU per unit; what the groups leave over is the glue that
// outside timing cannot split.
func shares(busyNs map[string]float64, units, cpuNsPerUnit float64) (map[string]float64, float64) {
	out := make(map[string]float64, len(busyNs))
	rest := 1.0
	for k, ns := range busyNs {
		out[k] = ns / units / cpuNsPerUnit
		rest -= out[k]
	}
	return out, rest
}

// replay is the outcome of one traced replay.
type replay struct {
	spans     []span
	sent      int // client: packets sent
	encrypted int // client: packets encrypted
	writes    int // client: socket write calls
	payload   int // client: payload bytes sent
	recv      int // server: packets received
	decrypted int // server: packets decrypted
	reads     int // server: socket read calls

	decodeNs         float64 // per frame
	reassembleAllocs float64 // per packet
	emitOffNs        float64 // per call
	oh               overhead
}

// newReplay measures the costs that do not depend on the path: decode
// (verification and the eavesdropper's view), allocations per
// Reassembler.Add, ledger.Emit with no ledger installed, and the cost of
// recording a span. It runs before any replay goroutine starts, so the
// allocation count is this goroutine's alone.
func newReplay(c *clip) (*replay, error) {
	rp := &replay{oh: calibrate()}
	t0 := time.Now()
	if _, err := codec.DecodeSequence(c.frames, c.cfg); err != nil {
		return nil, err
	}
	rp.decodeNs = float64(time.Since(t0).Nanoseconds()) / float64(len(c.frames))

	var payloads [][]byte
	for _, ef := range c.frames {
		pkts, err := codec.Packetize(ef, mtu)
		if err != nil {
			return nil, err
		}
		for _, p := range pkts {
			payloads = append(payloads, p.Payload)
		}
	}
	asm, err := codec.NewReassembler(c.cfg)
	if err != nil {
		return nil, err
	}
	var addErr error
	allocs := allocsDuring(func() {
		for _, p := range payloads {
			if err := asm.Add(p); err != nil {
				addErr = err
			}
		}
	})
	if addErr != nil {
		return nil, addErr
	}
	rp.reassembleAllocs = float64(allocs) / float64(len(payloads))

	const emits = 1 << 20
	t0 = time.Now()
	for i := range emits {
		ledger.Emit(ledger.EventPlainPacket, "bench", uint64(i), 0, "")
	}
	rp.emitOffNs = float64(time.Since(t0).Nanoseconds()) / emits
	return rp, nil
}

func allocsDuring(f func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	f()
	metrics.Read(s)
	return s[0].Value.Uint64() - before
}

// rtpSender is the per-packet send step every UDP sender runs: packetize
// into pooled headroom, select, marshal the RTP header into the
// headroom, encrypt the marked payload in place, write the datagram to
// every destination, and release the buffer.
type rtpSender struct {
	cipher *vcrypt.Cipher
	pool   *codec.BufPool
	wps    []codec.WirePacket
	log    *spanLog
}

// frameSent is what one sendFrame call put on the wire.
type frameSent struct{ packets, encrypted, writes, payload int }

// sendFrame sends frame ef of one stream. seq is the stream's cipher IV
// counter, advanced per packet. With prefetch set the frame's keystreams
// are computed first, as the paced sender does while it waits.
func (s *rtpSender) sendFrame(trace, parent int64, ef *codec.EncodedFrame, seqr *rtp.Sequencer, sel *vcrypt.Selector, seq *uint64, prefetch bool, conns ...*net.UDPConn) (frameSent, error) {
	var out frameSent
	l := s.log
	t := l.now()
	wps, err := codec.PacketizeInto(ef, mtu, rtp.HeaderSize, s.pool, s.wps[:0])
	l.leaf(trace, parent, lPacketize, t)
	if err != nil {
		return out, err
	}
	s.wps = wps
	if prefetch {
		t = l.now()
		s.cipher.Prefetch(*seq, len(wps), mtu)
		l.leaf(trace, parent, lPrefetch, t)
	}
	var werr error
	for i := range wps {
		pkt := &wps[i]
		payload := pkt.Payload
		t = l.now()
		encrypted := sel.ShouldEncrypt(pkt.IsIFrame())
		l.leaf(trace, parent, lSelect, t)
		t = l.now()
		wire := seqr.Next(payload, float64(ef.Number)/fps, encrypted).MarshalInto(pkt.Wire(len(payload)))
		l.leaf(trace, parent, lFrame, t)
		if encrypted {
			t = l.now()
			s.cipher.EncryptPacket(*seq, wire[rtp.HeaderSize:])
			l.leaf(trace, parent, lEncrypt, t)
			out.encrypted++
		}
		for _, c := range conns {
			t = l.now()
			if _, err := c.Write(wire); err != nil && werr == nil {
				werr = err
			}
			l.leaf(trace, parent, lWrite, t)
			out.writes++
		}
		out.packets++
		out.payload += len(payload)
		t = l.now()
		s.pool.Put(pkt)
		l.leaf(trace, parent, lPacketize, t)
		*seq++
	}
	return out, werr
}

// rxCounts is what a replay receiver processed.
type rxCounts struct{ packets, decrypted, reads int }

// receiveRTP is the receive step of LiveReceiver and IngestServer: read
// a datagram, parse RTP, decrypt a marked payload under its sequence,
// reassemble into the SSRC's clip. It returns after want packets, or
// with an error at the socket's deadline, and reports its progress to
// the sender through f.
func receiveRTP(l *spanLog, conn *net.UDPConn, cipher *vcrypt.Cipher, cfg codec.Config, want int, f *flow) (rxCounts, error) {
	defer f.done.Store(true)
	var n rxCounts
	asms := make(map[uint32]*codec.Reassembler)
	buf := make([]byte, 65536)
	root, start := l.open()
	defer func() { l.close(0, root, 0, sReceive, start) }()
	for n.packets < want {
		t := l.now()
		size, err := conn.Read(buf)
		l.leaf(0, root, lRead, t)
		n.reads++
		if err != nil {
			return n, err
		}
		t = l.now()
		pkt, err := rtp.Parse(buf[:size])
		l.leaf(int64(pkt.SSRC), root, lParse, t)
		if err != nil {
			return n, err
		}
		asm := asms[pkt.SSRC]
		if asm == nil {
			if asm, err = codec.NewReassembler(cfg); err != nil {
				return n, err
			}
			asms[pkt.SSRC] = asm
		}
		if pkt.Encrypted() {
			t = l.now()
			cipher.DecryptPacket(uint64(pkt.Sequence), pkt.Payload)
			l.leaf(int64(pkt.SSRC), root, lDecrypt, t)
			n.decrypted++
		}
		t = l.now()
		err = asm.Add(pkt.Payload)
		l.leaf(int64(pkt.SSRC), root, lReassemble, t)
		if err != nil {
			return n, err
		}
		n.packets++
		f.got.Add(1)
	}
	return n, nil
}

// flow keeps a replay's UDP sender within maxAhead packets of its
// receiver, well inside the receive buffer, so the replay loses nothing.
type flow struct {
	got  atomic.Int64 // packets received
	done atomic.Bool  // the receiver returned
}

const maxAhead = 512

// wait blocks while the sender, having sent sent packets, is too far
// ahead of a receiver that is still running.
func (f *flow) wait(sent int) {
	for int64(sent)-f.got.Load() > maxAhead && !f.done.Load() {
		time.Sleep(100 * time.Microsecond)
	}
}

// listenUDP opens a loopback listener with a receive buffer large
// enough for maxAhead packets.
func listenUDP() (*net.UDPConn, error) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	if err := rx.SetReadBuffer(4 << 20); err != nil {
		rx.Close()
		return nil, err
	}
	return rx, nil
}

// udpPair opens a loopback listener and a connected sender socket aimed
// at it.
func udpPair() (rx, tx *net.UDPConn, err error) {
	if rx, err = listenUDP(); err != nil {
		return nil, nil, err
	}
	tx, err = net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		rx.Close()
		return nil, nil, err
	}
	return rx, tx, nil
}

// replayDeadline bounds a replay receiver; the replays take seconds.
const replayDeadline = 60 * time.Second

// replayUDP runs a traced UDP replay: receiveRTP drains rx in its own
// goroutine while send, recording into its own span log and keeping
// within the receiver's flow control, puts want packets on the wire.
func replayUDP(rp *replay, rx *net.UDPConn, cipher *vcrypt.Cipher, cfg codec.Config, want int, send func(*spanLog, *flow) error) error {
	if err := rx.SetReadDeadline(time.Now().Add(replayDeadline)); err != nil {
		return err
	}
	tr := newTracer()
	rl := tr.log(4 * want)
	var f flow
	var rc rxCounts
	rxDone := make(chan error, 1)
	go func() {
		var err error
		rc, err = receiveRTP(rl, rx, cipher, cfg, want, &f)
		rxDone <- err
	}()
	l := tr.log(8 * want)
	sendErr := send(l, &f)
	if sendErr != nil {
		// The receiver will not get its packets: wake it now rather than
		// at the deadline. SetReadDeadline on an open socket cannot fail.
		_ = rx.SetReadDeadline(time.Now())
	}
	if err := errors.Join(sendErr, <-rxDone); err != nil {
		return err
	}
	rp.received(rc)
	rp.spans = append(l.spans, rl.spans...)
	return nil
}

// replayStream replays one pass of the clip through the paced sender's
// steps without its sleeps (prefetch before each frame, as LiveUDPSend
// does while it waits) to the receiver and the eavesdropper.
func replayStream(c *clip, key []byte) (*replay, error) {
	rp, err := newReplay(c)
	if err != nil {
		return nil, err
	}
	rx, tx, err := udpPair()
	if err != nil {
		return nil, err
	}
	defer rx.Close()
	defer tx.Close()
	// The eavesdropper's socket is only written to: its receive cost is
	// the server's, and the replay times the sender.
	ev, evTx, err := udpPair()
	if err != nil {
		return nil, err
	}
	defer ev.Close()
	defer evTx.Close()
	sendCipher, err := vcrypt.NewCipher(streamPolicy.Alg, key)
	if err != nil {
		return nil, err
	}
	recvCipher, err := vcrypt.NewCipher(streamPolicy.Alg, key)
	if err != nil {
		return nil, err
	}
	sel, err := vcrypt.NewSelector(streamPolicy)
	if err != nil {
		return nil, err
	}
	err = replayUDP(rp, rx, recvCipher, c.cfg, c.packets(), func(l *spanLog, f *flow) error {
		snd := &rtpSender{cipher: sendCipher, pool: codec.NewBufPool(), log: l}
		seqr := rtp.NewSequencer(0x7561)
		var seq uint64
		sess, s0 := l.open()
		defer func() { l.close(1, sess, 0, sSession, s0) }()
		for _, ef := range c.frames {
			fid, fs := l.open()
			sent, err := snd.sendFrame(1, fid, ef, seqr, sel, &seq, true, tx, evTx)
			l.close(1, fid, sess, sFrame, fs)
			rp.add(sent)
			if err != nil {
				return err
			}
			f.wait(rp.sent)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rp, nil
}

func (rp *replay) add(f frameSent) {
	rp.sent += f.packets
	rp.encrypted += f.encrypted
	rp.writes += f.writes
	rp.payload += f.payload
}

func (rp *replay) received(n rxCounts) {
	rp.recv += n.packets
	rp.decrypted += n.decrypted
	rp.reads += n.reads
}

// replayUploads is how many uploads the HTTP replay sends.
const replayUploads = 20

// timedConn charges every read and write on a connection to the span
// that is open around it.
type timedConn struct {
	net.Conn
	log    *spanLog
	trace  int64
	parent int64
	calls  int
}

func (c *timedConn) Read(p []byte) (int, error) {
	t := c.log.now()
	n, err := c.Conn.Read(p)
	c.log.leaf(c.trace, c.parent, lRead, t)
	c.calls++
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	t := c.log.now()
	n, err := c.Conn.Write(p)
	c.log.leaf(c.trace, c.parent, lWrite, t)
	c.calls++
	return n, err
}

// replayUpload replays uploads through the resumable uploader's steps:
// build the segments (pool-less packetize, select, inline encrypt, as
// buildSegments does), then frame and write each segment on one TCP
// connection; the receiver reads, parses, decrypts and reassembles as
// HTTPUploadServer does. net/http itself is not replayed: its cost is
// part of the unattributed remainder.
func replayUpload(c *clip, key []byte, uploads int) (*replay, error) {
	rp, err := newReplay(c)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	sendCipher, err := vcrypt.NewCipher(uploadPolicy.Alg, key)
	if err != nil {
		return nil, err
	}
	recvCipher, err := vcrypt.NewCipher(uploadPolicy.Alg, key)
	if err != nil {
		return nil, err
	}
	nseg := c.packets()
	tr := newTracer()
	rl := tr.log(4 * uploads * nseg)
	rxDone := make(chan error, 1)
	var rc rxCounts
	go func() {
		var err error
		rc, err = receiveSegments(rl, ln, recvCipher, c.cfg, uploads, nseg)
		rxDone <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	l := tr.log(6 * uploads * nseg)
	w := &timedConn{Conn: conn, log: l}
	var sendErr error
	for u := 1; u <= uploads && sendErr == nil; u++ {
		sent, err := sendUpload(l, w, int64(u), c, sendCipher)
		rp.add(sent)
		sendErr = err
	}
	if sendErr != nil {
		conn.Close() // the receiver's next read fails instead of waiting for the deadline
	}
	rxErr := <-rxDone
	if err := errors.Join(sendErr, rxErr); err != nil {
		return nil, err
	}
	rp.received(rc)
	rp.spans = append(l.spans, rl.spans...)
	return rp, nil
}

// sendUpload builds one upload's segments and writes them to w.
func sendUpload(l *spanLog, w *timedConn, trace int64, c *clip, cipher *vcrypt.Cipher) (frameSent, error) {
	var out frameSent
	sel, err := vcrypt.NewSelector(uploadPolicy)
	if err != nil {
		return out, err
	}
	type segment struct {
		encrypted bool
		payload   []byte
	}
	var segs []segment
	var wps []codec.WirePacket
	sess, s0 := l.open()
	defer func() { l.close(trace, sess, 0, sSession, s0) }()
	for _, ef := range c.frames {
		fid, fs := l.open()
		t := l.now()
		wps, err = codec.PacketizeInto(ef, mtu, 0, nil, wps[:0])
		l.leaf(trace, fid, lPacketize, t)
		if err != nil {
			return out, err
		}
		for i := range wps {
			pkt := &wps[i]
			payload := pkt.Payload
			//lint:retain(the segment list keeps every payload until the upload is written)
			pkt.Retain()
			t = l.now()
			encrypted := sel.ShouldEncrypt(pkt.IsIFrame())
			l.leaf(trace, fid, lSelect, t)
			if encrypted {
				t = l.now()
				cipher.EncryptPacket(uint64(len(segs)), payload[:uploadPolicy.EncryptSpan(len(payload))])
				l.leaf(trace, fid, lEncrypt, t)
				out.encrypted++
			}
			segs = append(segs, segment{encrypted, payload})
		}
		l.close(trace, fid, sess, sFrame, fs)
	}
	w.trace = trace
	calls := w.calls
	for seq, s := range segs {
		id, t := l.open()
		w.parent = id
		err := transport.WriteSegment(w, uint64(seq), s.encrypted, s.payload)
		l.close(trace, id, sess, lFrame, t)
		if err != nil {
			return out, err
		}
		out.packets++
		out.payload += len(s.payload)
	}
	out.writes = w.calls - calls
	return out, nil
}

// receiveSegments accepts the replay connection and takes uploads of
// nseg segments each: read and parse a segment, decrypt it if marked,
// reassemble it into that upload's clip.
func receiveSegments(l *spanLog, ln net.Listener, cipher *vcrypt.Cipher, cfg codec.Config, uploads, nseg int) (rxCounts, error) {
	var n rxCounts
	conn, err := ln.Accept()
	if err != nil {
		return n, err
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(replayDeadline)); err != nil {
		return n, err
	}
	root, start := l.open()
	defer func() { l.close(0, root, 0, sReceive, start) }()
	r := &timedConn{Conn: conn, log: l}
	br := bufio.NewReader(r)
	for u := 1; u <= uploads; u++ {
		asm, err := codec.NewReassembler(cfg)
		if err != nil {
			return n, err
		}
		r.trace = int64(u)
		for range nseg {
			id, t := l.open()
			r.parent = id
			seq, encrypted, payload, err := transport.ReadSegment(br)
			l.close(int64(u), id, root, lParse, t)
			if err != nil {
				return n, err
			}
			if encrypted {
				t = l.now()
				cipher.DecryptPacket(seq, payload)
				l.leaf(int64(u), root, lDecrypt, t)
				n.decrypted++
			}
			t = l.now()
			err = asm.Add(payload)
			l.leaf(int64(u), root, lReassemble, t)
			if err != nil {
				return n, err
			}
			n.packets++
		}
	}
	n.reads = r.calls
	return n, nil
}

// writeTrace writes the spans of every run that still holds them as
// trace.json.
func writeTrace(path string, runs []*result) error {
	type table struct {
		Workload string     `json:"workload"`
		Seed     uint64     `json:"seed"`
		Spans    [][6]int64 `json:"spans"`
	}
	out := struct {
		Format string   `json:"format"`
		Names  []string `json:"names"`
		Runs   []table  `json:"runs"`
	}{
		Format: "each span is [trace_id, id, parent, name, start_ns, end_ns]; name indexes names; parent 0 marks a root",
		Names:  layerNames[:],
	}
	for _, r := range runs {
		if len(r.spans) == 0 {
			continue
		}
		t := table{Workload: r.Workload, Seed: r.Seed, Spans: make([][6]int64, len(r.spans))}
		for i, s := range r.spans {
			t.Spans[i] = [6]int64{s.Trace, s.ID, s.Parent, int64(s.Layer), s.Start, s.End}
		}
		out.Runs = append(out.Runs, t)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(out)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

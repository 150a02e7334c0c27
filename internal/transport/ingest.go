package transport

import (
	"encoding/binary"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/ledger"
	"repro/internal/rtp"
	"repro/internal/vcrypt"
)

// Multi-tenant UDP ingest (ROADMAP item 1): one relay socket carrying
// thousands of concurrent mobile uploads. Each RTP SSRC is a session;
// per-session state (sequence extension, dedup window, reassembler,
// token bucket) lives in sharded maps so admission and the packet path
// never contend on one lock, and a pool of reader goroutines drains the
// socket so a slow decrypt on one core cannot back the kernel buffer up.
//
// Two control datagrams ride on the same socket, distinguished from RTP
// the same way NACKs are (the magic's version bits are invalid):
//
//	"TVRJ" (4) | retry-after millis (4, big endian)   server → client
//	"TVFN" (4) | ssrc (4, big endian)                 client → server
//
// TVRJ answers an arrival refused by admission control — backpressure
// with an explicit retry hint instead of a silent drop. TVFN lets a
// client end its session eagerly instead of waiting for idle eviction.

var (
	rejectMagic = [4]byte{'T', 'V', 'R', 'J'}
	finMagic    = [4]byte{'T', 'V', 'F', 'N'}
)

func marshalReject(retryAfter time.Duration) []byte {
	out := make([]byte, 8)
	copy(out[:4], rejectMagic[:])
	binary.BigEndian.PutUint32(out[4:], uint32(retryAfter.Milliseconds()))
	return out
}

func parseReject(data []byte) (retryAfter time.Duration, ok bool) {
	// Exact length: a UDP datagram is one whole control message, so
	// trailing bytes mean a corrupt or forged frame, not a stream split.
	if len(data) != 8 || [4]byte(data[:4]) != rejectMagic {
		return 0, false
	}
	return time.Duration(binary.BigEndian.Uint32(data[4:8])) * time.Millisecond, true
}

func marshalFIN(ssrc uint32) []byte {
	out := make([]byte, 8)
	copy(out[:4], finMagic[:])
	binary.BigEndian.PutUint32(out[4:], ssrc)
	return out
}

func parseFIN(data []byte) (ssrc uint32, ok bool) {
	if len(data) != 8 || [4]byte(data[:4]) != finMagic {
		return 0, false
	}
	return binary.BigEndian.Uint32(data[4:8]), true
}

// IngestConfig tunes the ingest server. The zero value of every knob
// picks a sensible default; Cfg, Alg and Key describe the streams the
// tenants send (all sessions share one clip format and key in this
// emulation — a deployment would key sessions individually).
type IngestConfig struct {
	Addr string       // listen address, e.g. "127.0.0.1:0"
	Cfg  codec.Config // codec configuration sessions reassemble under
	Alg  vcrypt.Algorithm
	Key  []byte // nil = no key: marked payloads become erasures

	// HeaderOnlyBytes mirrors the senders' Policy.HeaderOnlyBytes.
	HeaderOnlyBytes int

	Shards  int // session-map shards (default 16)
	Readers int // socket reader goroutines (default NumCPU, capped at 8)

	// MaxSessions caps resident sessions; past it new SSRCs are refused
	// with a reject datagram carrying RetryAfter (default 250ms).
	// 0 = unlimited.
	MaxSessions int
	RetryAfter  time.Duration

	// SessionRate/SessionBurst shape each session's token bucket in
	// packets/second. Rate 0 = unlimited.
	SessionRate  float64
	SessionBurst int

	// IdleTimeout evicts sessions with no arrivals for this long
	// (default 30s).
	IdleTimeout time.Duration
}

// IngestSessionStats is one session's bookkeeping snapshot.
type IngestSessionStats struct {
	Received   int   // first-delivery packets accepted
	Usable     int   // accepted packets that decrypted and reassembled cleanly
	Duplicates int   // arrivals whose sequence was already delivered
	Throttled  int   // arrivals discarded by the token bucket
	Bytes      int64 // payload bytes of first deliveries
}

// IngestTotals aggregates the server's lifetime counters (live sessions
// included). The fields mirror the obs metrics one-for-one so tests can
// cross-check exported values against this exact bookkeeping.
type IngestTotals struct {
	Packets          int64
	Usable           int64
	Duplicates       int64
	Throttled        int64
	Rejected         int64
	BadPackets       int64
	Bytes            int64
	SessionsStarted  int64
	SessionsFinished int64
	SessionsEvicted  int64
}

type ingestSession struct {
	mu        sync.Mutex
	ext       seqExtender
	rx        rxSession
	limiter   *TokenBucket // nil when SessionRate is 0
	throttled int
	firstAt   time.Time
	lastAt    time.Time
}

// The shard lock and the per-session locks nest in one fixed
// direction, checked by the lockorder pass:
//
//lint:lockorder ingestShard.mu -> ingestSession.mu (sweepLoop probes session idleness under the shard lock; never acquire a shard lock while holding a session lock)
type ingestShard struct {
	mu       sync.Mutex
	sessions map[uint32]*ingestSession
}

// IngestServer is the sharded multi-tenant UDP ingest daemon.
type IngestServer struct {
	cfg    IngestConfig
	conn   *net.UDPConn
	open   opener // shared by all sessions; the cipher is concurrency-safe
	shards []*ingestShard
	active atomic.Int64 // resident sessions, for admission control

	// rejects bounds the reject-datagram chatter: under a reject storm
	// (thousands of refused clients hammering the cap) the server answers
	// a sample, not every arrival.
	rejects *TokenBucket

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	totals struct {
		packets, usable, dups, throttled, rejected, bad, bytes atomic.Int64
		started, finished, evicted                             atomic.Int64
	}
}

// NewIngestServer opens the socket and starts the reader pool and the
// idle-eviction sweeper.
func NewIngestServer(cfg IngestConfig) (*IngestServer, error) {
	// Validate the codec config once up front so per-session reassembler
	// construction cannot fail later.
	if _, err := codec.NewReassembler(cfg.Cfg); err != nil {
		return nil, err
	}
	open := opener{hdrOnly: cfg.HeaderOnlyBytes}
	if cfg.Key != nil {
		var err error
		if open.cipher, err = vcrypt.NewCipher(cfg.Alg, cfg.Key); err != nil {
			return nil, err
		}
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.Readers <= 0 {
		cfg.Readers = runtime.NumCPU()
		if cfg.Readers > 8 {
			cfg.Readers = 8
		}
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 250 * time.Millisecond
	}
	if cfg.SessionBurst <= 0 {
		cfg.SessionBurst = 64
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	udpAddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	conn.SetReadBuffer(8 << 20) //nolint:errcheck // best effort; the default buffer only costs more drops
	s := &IngestServer{
		cfg:     cfg,
		conn:    conn,
		open:    open,
		shards:  make([]*ingestShard, cfg.Shards),
		rejects: NewTokenBucket(2000, 200),
		done:    make(chan struct{}),
	}
	for i := range s.shards {
		s.shards[i] = &ingestShard{sessions: make(map[uint32]*ingestSession)}
	}
	for i := 0; i < cfg.Readers; i++ {
		s.wg.Add(1)
		go s.readLoop()
	}
	s.wg.Add(1)
	go s.sweepLoop()
	return s, nil
}

// Addr returns the bound address to hand to clients.
func (s *IngestServer) Addr() string { return s.conn.LocalAddr().String() }

// shard maps an SSRC to its shard with a multiplicative hash, so both
// sequential and clustered SSRC allocations spread evenly.
func (s *IngestServer) shard(ssrc uint32) *ingestShard {
	return s.shards[shardIndex(ssrc, len(s.shards))]
}

// shardIndex is the shard-selection math, factored out so a unit test
// can pin it independently of GOARCH. The reduction must stay in uint32
// space: int(h) truncates to a negative value for half the hash range
// on 32-bit platforms, and a negative modulo indexes out of range.
func shardIndex(ssrc uint32, n int) int {
	h := ssrc * 2654435761 // Knuth's multiplicative constant
	return int(h % uint32(n))
}

// readLoop is one worker of the bounded reader pool: it drains datagrams
// from the shared socket into a persistent buffer and runs the packet
// path inline. Reassembler.Add copies what it keeps and decrypt works in
// place, so the buffer is reusable as soon as handle returns. The sender
// address travels as a netip.AddrPort value, so the receive path
// allocates only the one copy Add makes of each packet it keeps.
func (s *IngestServer) readLoop() {
	defer s.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, from, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		s.handle(buf[:n], from)
	}
}

func (s *IngestServer) handle(data []byte, from netip.AddrPort) {
	if ssrc, ok := parseFIN(data); ok {
		s.finish(ssrc, false)
		return
	}
	pkt, err := rtp.Parse(data)
	if err != nil {
		s.totals.bad.Add(1)
		mIngestBadPackets.Inc()
		return
	}
	sess := s.lookup(pkt.SSRC)
	if sess == nil {
		// Admission refused: answer (a bounded sample of) the refused
		// arrivals with an explicit retry hint. The write happens with no
		// locks held.
		s.totals.rejected.Add(1)
		mIngestRejected.Inc()
		ledger.Emit(ledger.EventReject, "ingest", uint64(pkt.SSRC), 0, "session cap")
		if s.rejects.Allow() {
			s.conn.WriteToUDPAddrPort(marshalReject(s.cfg.RetryAfter), from) //nolint:errcheck // best effort, like the medium
		}
		return
	}
	s.process(sess, pkt)
}

// lookup returns the SSRC's session, creating it if admission allows;
// nil means the session cap refused a new tenant.
func (s *IngestServer) lookup(ssrc uint32) *ingestSession {
	sh := s.shard(ssrc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sess := sh.sessions[ssrc]; sess != nil {
		return sess
	}
	if s.cfg.MaxSessions > 0 && s.active.Load() >= int64(s.cfg.MaxSessions) {
		return nil
	}
	// Stamp lastAt at admission so every session is sweepable from birth:
	// a tenant admitted here whose packets never complete the packet path
	// must not hold a MaxSessions slot forever.
	sess := &ingestSession{lastAt: time.Now()}
	if sess.rx.reset(s.cfg.Cfg, 0) != nil {
		return nil // cannot happen: the constructor validated the config
	}
	if s.cfg.SessionRate > 0 {
		sess.limiter = NewTokenBucket(s.cfg.SessionRate, s.cfg.SessionBurst)
	}
	sh.sessions[ssrc] = sess
	mIngestSessionsActive.Set(s.active.Add(1))
	s.totals.started.Add(1)
	mIngestSessionsStarted.Inc()
	ledger.Emit(ledger.EventSessionStart, "ingest", uint64(ssrc), 0, "")
	return sess
}

func (s *IngestServer) process(sess *ingestSession, pkt rtp.Packet) {
	now := time.Now()
	sess.mu.Lock()
	// A throttled arrival is still an arrival: without this refresh a
	// session that keeps sending but is mostly rate-limited looks idle
	// to sweepLoop and gets evicted mid-stream.
	sess.lastAt = now
	if sess.limiter != nil && !sess.limiter.Allow() {
		sess.throttled++
		sess.mu.Unlock()
		s.totals.throttled.Add(1)
		mIngestThrottled.Inc()
		return
	}
	first, usable := sess.rx.deliver(s.open, sess.ext.Extend(pkt.Sequence), pkt.Encrypted(), pkt.Payload)
	if first && sess.firstAt.IsZero() {
		sess.firstAt = now
	}
	sess.mu.Unlock()
	if !first {
		s.totals.dups.Add(1)
		mIngestDuplicates.Inc()
		return
	}
	s.totals.packets.Add(1)
	s.totals.bytes.Add(int64(len(pkt.Payload)))
	mIngestPackets.Inc()
	mIngestBytes.Add(int64(len(pkt.Payload)))
	if usable {
		s.totals.usable.Add(1)
		mIngestUsable.Inc()
	}
}

// finish removes one session, attributing the close to a client FIN or
// to the idle sweeper. Unknown SSRCs are ignored (a duplicated FIN).
func (s *IngestServer) finish(ssrc uint32, evicted bool) {
	sh := s.shard(ssrc)
	sh.mu.Lock()
	sess := sh.sessions[ssrc]
	if sess != nil {
		delete(sh.sessions, ssrc)
		mIngestSessionsActive.Set(s.active.Add(-1))
	}
	sh.mu.Unlock()
	if sess == nil {
		return
	}
	if evicted {
		s.totals.evicted.Add(1)
		mIngestSessionsEvicted.Inc()
		ledger.Emit(ledger.EventEvict, "ingest", uint64(ssrc), 0, "idle")
	} else {
		s.totals.finished.Add(1)
		mIngestSessionsFinished.Inc()
		ledger.Emit(ledger.EventSessionEnd, "ingest", uint64(ssrc), 0, "fin")
	}
	sess.mu.Lock()
	if !sess.firstAt.IsZero() {
		mIngestSessionSeconds.Observe(sess.lastAt.Sub(sess.firstAt).Seconds())
	}
	sess.mu.Unlock()
}

// sweepLoop evicts idle sessions so abandoned uploads (a phone that
// walked out of range mid-clip and never resumed) release their slot
// and memory.
func (s *IngestServer) sweepLoop() {
	defer s.wg.Done()
	interval := s.cfg.IdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-s.cfg.IdleTimeout)
		for _, sh := range s.shards {
			var expired []uint32
			sh.mu.Lock()
			for ssrc, sess := range sh.sessions {
				sess.mu.Lock()
				// lastAt is stamped at admission, so it is never zero.
				idle := sess.lastAt.Before(cutoff)
				sess.mu.Unlock()
				if idle {
					expired = append(expired, ssrc)
				}
			}
			sh.mu.Unlock()
			for _, ssrc := range expired {
				s.finish(ssrc, true)
			}
		}
	}
}

// ActiveSessions returns how many sessions are resident right now.
func (s *IngestServer) ActiveSessions() int { return int(s.active.Load()) }

// resident returns the SSRC's session, nil when none is resident.
func (s *IngestServer) resident(ssrc uint32) *ingestSession {
	sh := s.shard(ssrc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions[ssrc]
}

// SessionStats returns the bookkeeping of one resident session.
func (s *IngestServer) SessionStats(ssrc uint32) (IngestSessionStats, bool) {
	sess := s.resident(ssrc)
	if sess == nil {
		return IngestSessionStats{}, false
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	rx := &sess.rx
	return IngestSessionStats{Received: rx.received, Usable: rx.usable, Duplicates: rx.dups, Throttled: sess.throttled, Bytes: rx.bytes}, true
}

// SessionFrames returns a snapshot of one resident session's
// reassembled clip; packets the session receives later do not change it.
func (s *IngestServer) SessionFrames(ssrc uint32, total int) []*codec.EncodedFrame {
	sess := s.resident(ssrc)
	if sess == nil {
		return nil
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.rx.asm.Frames(total)
}

// Totals snapshots the server's lifetime counters.
func (s *IngestServer) Totals() IngestTotals {
	return IngestTotals{
		Packets:          s.totals.packets.Load(),
		Usable:           s.totals.usable.Load(),
		Duplicates:       s.totals.dups.Load(),
		Throttled:        s.totals.throttled.Load(),
		Rejected:         s.totals.rejected.Load(),
		BadPackets:       s.totals.bad.Load(),
		Bytes:            s.totals.bytes.Load(),
		SessionsStarted:  s.totals.started.Load(),
		SessionsFinished: s.totals.finished.Load(),
		SessionsEvicted:  s.totals.evicted.Load(),
	}
}

// Close shuts the socket down and waits for every reader and the sweeper
// to exit; no goroutine outlives it.
func (s *IngestServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		err = s.conn.Close()
	})
	s.wg.Wait()
	return err
}

package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/rtp"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/vcrypt"
)

// ingest_fanin: the receive-heavy, many-session path. Open loop: tenant
// sessions start tenantRate times a second at seeded offsets, each
// streaming the clip at 30 fps, so about tenantRate × clip length
// sessions (200 for the 10 s clip) are resident at once; the window opens
// with that many already mid-clip. Every session ends with a TVFN FIN
// except the witnesses, and the seed makes a tenth of the sessions
// restart from packet 0 at the clip's midpoint on the other socket, as
// RunLoadgen's ResumeFrac does. One goroutine drives every tenant over
// two UDP sockets, running each packet through the same send step as the
// paced sender; RunLoadgen is not used because it opens a socket and a
// goroutine per session and sleeps in every one. The server is an
// IngestServer with default settings, IdleTimeout 5 s and no admission
// cap. It answers nothing on the happy path, so the workload has no
// latency to measure from outside.

const ingestName = "ingest_fanin"

var ingestPolicy = vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}

const (
	tenantRate   = 20.0 // sessions starting per second
	restartFrac  = 0.1
	witnesses    = 4
	idleTimeout  = 5 * time.Second
	replayWindow = 2.0 // seconds of the schedule the traced replay sends

	// The generator is on schedule when the p99 lateness of its frames
	// is at most maxLateMs, leaving out the frames it sends while
	// catching up after a host stall (see lateness), and those are at
	// most maxStallFrac of all frames.
	maxLateMs    = 5.0
	maxStallFrac = 0.05
)

// tenant is one emulated phone.
type tenant struct {
	ssrc    uint32
	start   float64 // seconds from the window's opening; negative = already streaming
	restart bool    // replays from packet 0 at the clip's midpoint, on the other socket
	witness bool    // sends no FIN; the server's copy of its clip is byte-checked
}

// sendEvent is one frame (or FIN) of one tenant, due at a window time.
type sendEvent struct {
	due    float64
	tenant int32
	frame  int32 // clip frame, or finFrame
	redial bool  // first frame after a restart
}

const finFrame = -1

// schedule lays out the seeded tenants for a window of the given length
// over a clip of the given frame count, and their send events in due
// order. Events due before 0 or at or after the window's end are not
// sent.
func schedule(seed uint64, frames int, seconds float64) ([]tenant, []sendEvent) {
	rng := stats.NewRNG(seed ^ 0x696e67657374)
	clipS := float64(frames) / fps
	pre := int(tenantRate * clipS)
	n := pre + int(tenantRate*seconds)
	used := make(map[uint32]bool, n)
	ts := make([]tenant, 0, n)
	for k := -pre; k < n-pre; k++ {
		t := tenant{start: (float64(k) + rng.Float64()) / tenantRate}
		for t.ssrc == 0 || used[t.ssrc] {
			t.ssrc = uint32(rng.Uint64())
		}
		used[t.ssrc] = true
		ts = append(ts, t)
	}
	// Exactly restartFrac of the sessions starting in the window restart:
	// a restarted session holds more memory, so a count left to chance
	// would make the seed move server_retained_mb.
	inWindow := make([]int, 0, n-pre)
	for i := pre; i < n; i++ {
		inWindow = append(inWindow, i)
	}
	rng.Shuffle(len(inWindow), func(i, j int) { inWindow[i], inWindow[j] = inWindow[j], inWindow[i] })
	for _, i := range inWindow[:int(math.Round(restartFrac*float64(len(inWindow))))] {
		ts[i].restart = true
	}
	// Witnesses are whole sessions that finish inside the window, late
	// enough that the idle sweeper cannot have evicted them by the time
	// the server checks them.
	var eligible []int
	for i, t := range ts {
		end := t.start + clipS
		if !t.restart && t.start >= 0 && end <= seconds-0.25 && end >= seconds-idleTimeout.Seconds()/2 {
			eligible = append(eligible, i)
		}
	}
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	for _, i := range eligible[:min(witnesses, len(eligible))] {
		ts[i].witness = true
	}
	var ev []sendEvent
	for i, t := range ts {
		sends := false
		add := func(slot int, frame int, redial bool) {
			if due := t.start + float64(slot)/fps; due >= 0 && due < seconds {
				ev = append(ev, sendEvent{due: due, tenant: int32(i), frame: int32(frame), redial: redial})
				sends = true
			}
		}
		slot := 0
		if t.restart {
			for f := 0; f < frames/2; f++ {
				add(slot, f, false)
				slot++
			}
		}
		for f := 0; f < frames; f++ {
			add(slot, f, t.restart && f == 0)
			slot++
		}
		// A tenant whose every frame fell before the window has no
		// session to end.
		if sends && !t.witness {
			add(slot, finFrame, false)
		}
	}
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].due < ev[j].due })
	return ts, ev
}

// finDatagram is the client's TVFN control datagram (see the transport
// package's ingest wire format).
func finDatagram(ssrc uint32) []byte {
	return binary.BigEndian.AppendUint32([]byte("TVFN"), ssrc)
}

// tenantState is one tenant's sender state.
type tenantState struct {
	seqr       *rtp.Sequencer
	sel        *vcrypt.Selector
	seq        uint64 // cipher IV counter of the current dial
	sock       int
	sentFrames int // frames sent in the current dial
	replayed   int // frames of the previous dial: resending them repeats delivered packets
}

// fanin drives every tenant from one goroutine.
type fanin struct {
	clip   []*codec.EncodedFrame
	ts     []tenant
	states []tenantState
	conns  [2]*net.UDPConn
	snd    rtpSender

	first, dups  int // packets: first deliveries and repeats
	firstBytes   int // payload bytes of first deliveries
	writes       int
	encrypted    int
	started      int
	fins         int
	lateness     lateness
	trace, frame int64 // enclosing spans of the traced replay
}

// lateness tells the generator's own lateness from host stalls. A gap of
// more than maxLateMs in which the generator did not run (a wake-up that
// late, or that long between two sends of one burst) is a host stall:
// the frames sent from then until the generator next sleeps are its
// backlog, counted apart from the lateness samples.
type lateness struct {
	ready       float64 // s: when the generator could next run, at its last send or the end of its sleep
	stalled     bool
	late        []float64 // ms, per frame sent outside a stall's backlog
	stalls      int
	stallFrames int
}

// slept notes a sleep that was due to end at due (s).
func (l *lateness) slept(due float64) { l.ready, l.stalled = due, false }

// sent notes an event due at due going out at t (s); frame is false for
// a FIN, which carries no lateness sample.
func (l *lateness) sent(t, due float64, frame bool) {
	if (t-l.ready)*1e3 > maxLateMs && !l.stalled {
		l.stalled = true
		l.stalls++
	}
	l.ready = t
	switch {
	case !frame:
	case l.stalled:
		l.stallFrames++
	default:
		l.late = append(l.late, (t-due)*1e3)
	}
}

// stallFrac is the share of frames sent as a stall's backlog.
func (l *lateness) stallFrac() float64 {
	return float64(l.stallFrames) / float64(max(len(l.late)+l.stallFrames, 1))
}

func newFanin(c *clip, ts []tenant, key []byte, addr string) (*fanin, error) {
	cipher, err := vcrypt.NewCipher(ingestPolicy.Alg, key)
	if err != nil {
		return nil, err
	}
	g := &fanin{clip: c.frames, ts: ts, states: make([]tenantState, len(ts)),
		snd: rtpSender{cipher: cipher, pool: codec.NewBufPool()}}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	for i := range g.conns {
		if g.conns[i], err = net.DialUDP("udp", nil, raddr); err != nil {
			g.close()
			return nil, err
		}
	}
	for i, t := range ts {
		sel, err := vcrypt.NewSelector(ingestPolicy)
		if err != nil {
			g.close()
			return nil, err
		}
		g.states[i] = tenantState{seqr: rtp.NewSequencer(t.ssrc), sel: sel, sock: i % 2}
	}
	return g, nil
}

func (g *fanin) close() {
	for _, c := range g.conns {
		if c != nil {
			c.Close()
		}
	}
}

// send puts one event on the wire.
func (g *fanin) send(e sendEvent) error {
	t := &g.ts[e.tenant]
	st := &g.states[e.tenant]
	if e.redial {
		st.seqr = rtp.NewSequencer(t.ssrc)
		st.seq = 0
		st.sock ^= 1
		st.replayed, st.sentFrames = st.sentFrames, 0
	}
	conn := g.conns[st.sock]
	if e.frame == finFrame {
		g.fins++
		g.writes++
		_, err := conn.Write(finDatagram(t.ssrc))
		return err
	}
	if st.seq == 0 && st.replayed == 0 {
		g.started++
	}
	sent, err := g.snd.sendFrame(g.trace, g.frame, g.clip[e.frame], st.seqr, st.sel, &st.seq, false, conn)
	if st.sentFrames < st.replayed {
		g.dups += sent.packets
	} else {
		g.first += sent.packets
		g.firstBytes += sent.payload
	}
	st.sentFrames++
	g.writes += sent.writes
	g.encrypted += sent.encrypted
	return err
}

// paced sends the events on their schedule and records how late each
// frame goes out.
func (g *fanin) paced(ev []sendEvent) error {
	g.lateness.late = make([]float64, 0, len(ev))
	t0 := time.Now()
	for i := 0; i < len(ev); {
		now := time.Since(t0).Seconds()
		if d := ev[i].due - now; d > 0 {
			time.Sleep(time.Duration(d * float64(time.Second)))
			g.lateness.slept(ev[i].due)
			continue
		}
		for ; i < len(ev) && ev[i].due <= now; i++ {
			t := time.Since(t0).Seconds()
			g.lateness.sent(t, ev[i].due, ev[i].frame != finFrame)
			if err := g.send(ev[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func runIngest(p params) (*result, error) {
	key := keyFor(p.seed, ingestPolicy.Alg)
	var (
		c  *clip
		ts []tenant
		ev []sendEvent
	)
	h, err := setUp(func() (childSpec, error) {
		var err error
		if c, err = makeClip(p, ingestName); err != nil {
			return childSpec{}, err
		}
		ts, ev = schedule(p.seed, len(c.frames), p.seconds)
		var wit []uint32
		for _, t := range ts {
			if t.witness {
				wit = append(wit, t.ssrc)
			}
		}
		return childSpec{Workload: ingestName, Clip: c.path, Policy: ingestPolicy, Key: key, Witness: wit}, nil
	})
	if err != nil {
		return nil, err
	}
	defer h.stop()
	g, err := newFanin(c, ts, key, h.server.addrs[0])
	if err != nil {
		return nil, err
	}
	defer g.close()

	if err := h.open(); err != nil {
		return nil, err
	}
	sendErr := g.paced(ev)
	// The drain lets the server work off its socket backlog before it
	// stops its clock.
	m, err := h.close(100 * time.Millisecond)
	if sendErr != nil {
		return nil, fmt.Errorf("%s: send: %w", ingestName, sendErr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ingestName, err)
	}
	srv := m.server

	r := newResult(ingestName, p.seed)
	tot := srv.Totals
	r.Attempted = g.first
	r.Failed = max(0, g.first-int(tot.Usable))
	r.setCommon(m, float64(g.firstBytes)/1e6, int(tot.Packets))
	lt := &g.lateness
	lateP99, stallFrac := percentile(lt.late, 99), lt.stallFrac()
	r.set("gen.late_p99_ms", lateP99)
	r.set("gen.stalls", float64(lt.stalls))
	r.set("gen.stall_frac", stallFrac)
	r.set("gen.cpu_us_per_pkt", float64(m.client.CPUNs)/1e3/float64(max(g.first+g.dups, 1)))
	r.set("transport.ingest.dup_frac", float64(tot.Duplicates)/float64(max(tot.Packets+tot.Duplicates, 1)))
	r.set("transport.ingest.usable_frac", float64(tot.Usable)/float64(max(tot.Packets, 1)))
	r.set("transport.ingest.sessions_started", float64(tot.SessionsStarted))
	r.set("transport.ingest.sessions_evicted", float64(tot.SessionsEvicted))
	r.set("transport.ingest.bad_pkts", float64(tot.BadPackets))
	r.gate("every first delivery usable", tot.Packets == int64(g.first) && tot.Usable == int64(g.first),
		"sent %d, server counted %d, usable %d", g.first, tot.Packets, tot.Usable)
	r.gate("every replayed packet deduplicated", tot.Duplicates == int64(g.dups), "replayed %d, duplicates %d", g.dups, tot.Duplicates)
	r.gate("no bad, throttled or refused packets", tot.BadPackets == 0 && tot.Throttled == 0 && tot.Rejected == 0,
		"bad %d, throttled %d, rejected %d", tot.BadPackets, tot.Throttled, tot.Rejected)
	r.gate("sessions start, finish and stay as sent", tot.SessionsStarted == int64(g.started) && tot.SessionsFinished == int64(g.fins) && tot.SessionsEvicted == 0,
		"started %d/%d, finished %d/%d, evicted %d", tot.SessionsStarted, g.started, tot.SessionsFinished, g.fins, tot.SessionsEvicted)
	r.gate("witness clips byte-identical", srv.WitnessBad == 0 && countWitnesses(ts) > 0, "%d of %d witnesses differ", srv.WitnessBad, countWitnesses(ts))
	r.gate("generator on schedule", lateP99 <= maxLateMs && stallFrac <= maxStallFrac,
		"p99 lateness %.3f ms (limit %g ms); %d host stalls, their backlog %.4f of the frames (limit %g)",
		lateP99, maxLateMs, lt.stalls, stallFrac, maxStallFrac)
	if p.trace {
		rp, err := replayIngest(c, key, p.seed)
		if err != nil {
			return nil, err
		}
		r.addLayers(c, rp)
	}
	return r, nil
}

func countWitnesses(ts []tenant) int {
	n := 0
	for _, t := range ts {
		if t.witness {
			n++
		}
	}
	return n
}

// replayIngest replays the first seconds of the schedule without its
// sleeps, traced, into one receiver holding a reassembler per session.
func replayIngest(c *clip, key []byte, seed uint64) (*replay, error) {
	rp, err := newReplay(c)
	if err != nil {
		return nil, err
	}
	ts, ev := schedule(seed, len(c.frames), replayWindow)
	rx, err := listenUDP()
	if err != nil {
		return nil, err
	}
	defer rx.Close()
	g, err := newFanin(c, ts, key, rx.LocalAddr().String())
	if err != nil {
		return nil, err
	}
	defer g.close()
	want := 0
	for _, e := range ev {
		if e.frame != finFrame {
			want += c.packetsAt[e.frame]
		}
	}
	recvCipher, err := vcrypt.NewCipher(ingestPolicy.Alg, key)
	if err != nil {
		return nil, err
	}
	err = replayUDP(rp, rx, recvCipher, c.cfg, want, func(l *spanLog, f *flow) error {
		g.snd.log = l
		for _, e := range ev {
			if e.frame == finFrame {
				continue // the replay times the packet path only
			}
			g.trace = int64(g.ts[e.tenant].ssrc)
			fid, fs := l.open()
			g.frame = fid
			err := g.send(e)
			l.close(g.trace, fid, 0, sFrame, fs)
			if err != nil {
				return err
			}
			f.wait(g.first + g.dups)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rp.sent, rp.encrypted, rp.writes, rp.payload = g.first+g.dups, g.encrypted, g.writes, g.firstBytes
	return rp, nil
}

// ingestServer is the server half: an IngestServer with default
// settings.
type ingestServer struct {
	frames  []*codec.EncodedFrame
	witness []uint32
	srv     *transport.IngestServer
}

func newIngestServer(spec childSpec, cfg codec.Config, frames []*codec.EncodedFrame) (server, error) {
	srv, err := transport.NewIngestServer(transport.IngestConfig{
		Addr: "127.0.0.1:0", Cfg: cfg, Alg: spec.Policy.Alg, Key: spec.Key,
		HeaderOnlyBytes: spec.Policy.HeaderOnlyBytes, IdleTimeout: idleTimeout,
	})
	if err != nil {
		return nil, err
	}
	return &ingestServer{frames: frames, witness: spec.Witness, srv: srv}, nil
}

func (s *ingestServer) addrs() []string { return []string{s.srv.Addr()} }
func (s *ingestServer) start()          {}
func (s *ingestServer) drain()          {}

func (s *ingestServer) check(res *childResult) {
	res.Totals = s.srv.Totals()
	for _, ssrc := range s.witness {
		if badFrames(s.srv.SessionFrames(ssrc, len(s.frames)), s.frames) > 0 {
			res.WitnessBad++
		}
	}
}

func (s *ingestServer) close() { s.srv.Close() }

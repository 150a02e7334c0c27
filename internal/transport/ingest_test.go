package transport

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/evalvid"
	"repro/internal/obs"
	"repro/internal/rtp"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// ingestTestConfig mirrors a session's crypto and codec setup onto the
// ingest server.
func ingestTestConfig(s Session) IngestConfig {
	return IngestConfig{
		Addr:            "127.0.0.1:0",
		Cfg:             s.Config,
		Alg:             s.Policy.Alg,
		Key:             s.Key,
		HeaderOnlyBytes: s.Policy.HeaderOnlyBytes,
	}
}

// waitFor polls cond until it holds or the timeout expires.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// sendSeg writes one wire segment as an RTP packet for the given tenant.
func sendSeg(t *testing.T, conn net.Conn, buf []byte, ssrc uint32, seg wireSegment) {
	t.Helper()
	p := rtp.Packet{
		PayloadType: rtp.PayloadTypeVideo,
		Marker:      seg.encrypted,
		Sequence:    uint16(seg.seq),
		Timestamp:   uint32(seg.seq),
		SSRC:        ssrc,
		Payload:     seg.payload(),
	}
	if _, err := conn.Write(p.MarshalInto(buf)); err != nil {
		t.Fatal(err)
	}
}

func TestIngestSingleSessionReassembles(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}
	s, clip := testSession(t, video.MotionLow, pol)
	srv, err := NewIngestServer(ingestTestConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const ssrc = 0xABCD
	buf := make([]byte, rtp.HeaderSize+s.MTU+64)
	for i, seg := range segs {
		sendSeg(t, conn, buf, ssrc, seg)
		if i%64 == 63 {
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		st, ok := srv.SessionStats(ssrc)
		return ok && st.Received == len(segs)
	}, "every segment to land")
	st, _ := srv.SessionStats(ssrc)
	if st.Usable != len(segs) || st.Duplicates != 0 || st.Throttled != 0 {
		t.Fatalf("session stats %+v", st)
	}
	got, err := codec.DecodeSequence(srv.SessionFrames(ssrc, len(s.Encoded)), s.Config)
	if err != nil {
		t.Fatal(err)
	}
	q, err := evalvid.Evaluate(clip, got)
	if err != nil {
		t.Fatal(err)
	}
	if q.PSNR < 30 {
		t.Fatalf("ingest reassembly PSNR %.1f: encrypted payloads garbled", q.PSNR)
	}

	// A resume replay: the first ten segments again, all duplicates.
	for _, seg := range segs[:10] {
		sendSeg(t, conn, buf, ssrc, seg)
	}
	waitFor(t, 5*time.Second, func() bool {
		st, ok := srv.SessionStats(ssrc)
		return ok && st.Duplicates == 10
	}, "replayed segments to count as duplicates")

	// FIN releases the slot and attributes the close.
	if _, err := conn.Write(marshalFIN(ssrc)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.ActiveSessions() == 0 }, "FIN to release the session")
	tot := srv.Totals()
	if tot.SessionsStarted != 1 || tot.SessionsFinished != 1 || tot.SessionsEvicted != 0 {
		t.Fatalf("session lifecycle totals %+v", tot)
	}
	if tot.Packets != int64(len(segs)) || tot.Duplicates != 10 {
		t.Fatalf("packet totals %+v", tot)
	}
}

func TestIngestAdmissionRejectsPastCap(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeNone, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionLow, pol)
	cfg := ingestTestConfig(s)
	cfg.MaxSessions = 2
	cfg.Readers = 1 // deterministic arrival order
	cfg.RetryAfter = 30 * time.Millisecond
	srv, err := NewIngestServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, rtp.HeaderSize+s.MTU+64)
	conns := make([]net.Conn, 3)
	for i := range conns {
		if conns[i], err = net.Dial("udp", srv.Addr()); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
	}
	sendSeg(t, conns[0], buf, 1, segs[0])
	sendSeg(t, conns[1], buf, 2, segs[0])
	waitFor(t, 2*time.Second, func() bool { return srv.ActiveSessions() == 2 }, "two tenants to be admitted")

	// The third tenant is over the cap: refused, and told when to retry.
	sendSeg(t, conns[2], buf, 3, segs[0])
	conns[2].SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck // UDP deadline set cannot fail
	rbuf := make([]byte, 64)
	n, err := conns[2].Read(rbuf)
	if err != nil {
		t.Fatalf("no reject datagram: %v", err)
	}
	retryAfter, ok := parseReject(rbuf[:n])
	if !ok || retryAfter != cfg.RetryAfter {
		t.Fatalf("reject parse %v %v, want %v", retryAfter, ok, cfg.RetryAfter)
	}
	if tot := srv.Totals(); tot.Rejected < 1 {
		t.Fatalf("rejected total %d", tot.Rejected)
	}
	if srv.ActiveSessions() != 2 {
		t.Fatalf("refused tenant became resident")
	}

	// A FIN frees a slot; the refused tenant's retry is admitted.
	if _, err := conns[0].Write(marshalFIN(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.ActiveSessions() == 1 }, "FIN to free a slot")
	sendSeg(t, conns[2], buf, 3, segs[0])
	waitFor(t, 2*time.Second, func() bool {
		_, ok := srv.SessionStats(3)
		return ok
	}, "retry to be admitted")
}

func TestIngestTokenBucketThrottles(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeNone, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionLow, pol)
	cfg := ingestTestConfig(s)
	cfg.SessionRate = 50
	cfg.SessionBurst = 4
	srv, err := NewIngestServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 40 {
		segs = segs[:40]
	}
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, rtp.HeaderSize+s.MTU+64)
	const ssrc = 7
	for _, seg := range segs {
		sendSeg(t, conn, buf, ssrc, seg)
	}
	waitFor(t, 2*time.Second, func() bool {
		st, ok := srv.SessionStats(ssrc)
		return ok && st.Received+st.Throttled >= len(segs)/2
	}, "the blast to arrive")
	st, _ := srv.SessionStats(ssrc)
	if st.Throttled < 1 {
		t.Fatalf("no packet throttled by a %0.f pps bucket under a blast: %+v", cfg.SessionRate, st)
	}
	if st.Received > cfg.SessionBurst+6 {
		t.Fatalf("bucket admitted %d packets, burst is %d", st.Received, cfg.SessionBurst)
	}
	if tot := srv.Totals(); tot.Throttled != int64(st.Throttled) {
		t.Fatalf("totals %d vs session %d throttled", tot.Throttled, st.Throttled)
	}
}

func TestIngestIdleEviction(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeNone, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionLow, pol)
	cfg := ingestTestConfig(s)
	cfg.IdleTimeout = 60 * time.Millisecond
	srv, err := NewIngestServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, rtp.HeaderSize+s.MTU+64)
	sendSeg(t, conn, buf, 42, segs[0])
	waitFor(t, 2*time.Second, func() bool { return srv.ActiveSessions() == 1 }, "the tenant to be admitted")
	// The phone walked out of range: no FIN, just silence.
	waitFor(t, 2*time.Second, func() bool { return srv.ActiveSessions() == 0 }, "the sweeper to evict the idle session")
	tot := srv.Totals()
	if tot.SessionsEvicted != 1 || tot.SessionsFinished != 0 {
		t.Fatalf("lifecycle totals %+v", tot)
	}
}

// The race-enabled smoke run of the load generator: a few hundred
// concurrent tenants with bursty loss and a resume storm, cross-checking
// the obs metrics against the server's own bookkeeping and proving the
// server winds down clean.
func TestLoadgenSmoke(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionLow, pol)
	cfg := ingestTestConfig(s)
	cfg.IdleTimeout = 250 * time.Millisecond
	baseGoroutines := runtime.NumGoroutine()
	srv, err := NewIngestServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	pk0 := mIngestPackets.Value()
	dup0 := mIngestDuplicates.Value()
	use0 := mIngestUsable.Value()
	start0 := mIngestSessionsStarted.Value()
	fin0 := mIngestSessionsFinished.Value()
	evict0 := mIngestSessionsEvicted.Value()

	lc := LoadgenConfig{
		Sessions:   150,
		MeanLoss:   0.05,
		ResumeFrac: 0.2,
		Seed:       7,
	}
	rep, err := RunLoadgen(srv, s, lc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != lc.Sessions {
		t.Fatalf("report %v", rep)
	}
	if rep.Resumes == 0 || rep.PacketsLost == 0 {
		t.Fatalf("chaos did not bite: %v", rep)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("latency percentiles p50=%v p99=%v", rep.P50, rep.P99)
	}
	if rep.GoodputBps <= 0 || rep.Server.Usable == 0 {
		t.Fatalf("no goodput measured: %v", rep)
	}
	if rep.Server.SessionsStarted == 0 {
		t.Fatalf("no sessions started: %v", rep)
	}
	if rep.Server.Packets+rep.Server.Duplicates > rep.PacketsSent {
		t.Fatalf("server counted more arrivals (%d+%d) than clients sent (%d)",
			rep.Server.Packets, rep.Server.Duplicates, rep.PacketsSent)
	}

	// Every tenant leaves — by FIN, or by eviction for the few whose FIN
	// the medium ate.
	// Quiescence, not just a momentary zero: packets still queued in the
	// server socket can resurrect the count, so require the totals to
	// hold still across a poll gap too.
	last := srv.Totals()
	waitFor(t, 5*time.Second, func() bool {
		time.Sleep(20 * time.Millisecond)
		tot := srv.Totals()
		settled := srv.ActiveSessions() == 0 && tot == last
		last = tot
		return settled
	}, "all sessions to drain")
	tot := srv.Totals()
	if tot.SessionsStarted < int64(lc.Sessions) {
		t.Fatalf("only %d sessions ever started of %d", tot.SessionsStarted, lc.Sessions)
	}
	if tot.SessionsFinished+tot.SessionsEvicted != tot.SessionsStarted {
		t.Fatalf("lifecycle leak: %+v", tot)
	}
	// The obs counters and the server's own totals increment on the same
	// code paths; after quiescence they must agree exactly.
	if got := mIngestPackets.Value() - pk0; got != tot.Packets {
		t.Fatalf("obs counted %d packets, server %d", got, tot.Packets)
	}
	if got := mIngestDuplicates.Value() - dup0; got != tot.Duplicates {
		t.Fatalf("obs counted %d duplicates, server %d", got, tot.Duplicates)
	}
	if got := mIngestUsable.Value() - use0; got != tot.Usable {
		t.Fatalf("obs counted %d usable, server %d", got, tot.Usable)
	}
	if got := mIngestSessionsStarted.Value() - start0; got != tot.SessionsStarted {
		t.Fatalf("obs counted %d starts, server %d", got, tot.SessionsStarted)
	}
	if got := (mIngestSessionsFinished.Value() - fin0) + (mIngestSessionsEvicted.Value() - evict0); got != tot.SessionsFinished+tot.SessionsEvicted {
		t.Fatalf("obs counted %d closes, server %d", got, tot.SessionsFinished+tot.SessionsEvicted)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines+3
	}, "reader pool and sweeper goroutines to exit")
}

// Past the session cap the server pushes back with retry-after hints and
// clients ride them in: everyone either completes or gives up explicitly,
// and the cap is never breached.
func TestLoadgenBackpressure(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeNone, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionLow, pol)
	cfg := ingestTestConfig(s)
	cfg.MaxSessions = 25
	cfg.RetryAfter = 25 * time.Millisecond
	cfg.IdleTimeout = 300 * time.Millisecond
	srv, err := NewIngestServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	lc := LoadgenConfig{
		Sessions: 80,
		// Generous probe window: under -race the reject datagram can
		// take tens of milliseconds to come back, and a client that
		// stops listening too early wrongly assumes admission.
		AdmitProbe: 150 * time.Millisecond,
		Seed:       3,
	}
	rep, err := RunLoadgen(srv, s, lc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Unadmitted != rep.Sessions {
		t.Fatalf("clients unaccounted for: %v", rep)
	}
	if rep.Server.Rejected == 0 {
		t.Fatalf("cap of %d never pushed back on %d clients: %v", cfg.MaxSessions, lc.Sessions, rep)
	}
	if rep.AdmitRetries == 0 {
		t.Fatalf("no client rode a retry-after hint: %v", rep)
	}
	if rep.Completed < cfg.MaxSessions {
		t.Fatalf("only %d clients completed under a cap of %d", rep.Completed, cfg.MaxSessions)
	}
}

// SessionFrames returns snapshots: a caller may read every chunk while
// the same session keeps receiving packets for the frames it holds. The
// second pass resends the whole clip under fresh sequence numbers, so
// each of its packets is usable and rewrites macroblocks the snapshots
// already show; run under -race this checks that no Add touches them.
func TestIngestSessionFramesAreSnapshots(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionLow, pol)
	srv, err := NewIngestServer(ingestTestConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	first, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := buildSegments(s, uint64(len(first)))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const ssrc = 0x5A17
	buf := make([]byte, rtp.HeaderSize+s.MTU+64)
	send := func(segs []wireSegment, want int) {
		for i, seg := range segs {
			sendSeg(t, conn, buf, ssrc, seg)
			if i%64 == 63 {
				time.Sleep(time.Millisecond)
			}
		}
		waitFor(t, 5*time.Second, func() bool {
			st, ok := srv.SessionStats(ssrc)
			return ok && st.Usable == want
		}, "every segment to land")
	}
	send(first, len(first))

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ef := range srv.SessionFrames(ssrc, len(s.Encoded)) {
				if ef == nil {
					continue
				}
				for _, mb := range ef.MBData {
					_ = bytes.Clone(mb)
				}
			}
		}
	}()
	send(second, len(first)+len(second))
	close(stop)
	<-done

	got := srv.SessionFrames(ssrc, len(s.Encoded))
	for i, want := range s.Encoded {
		for j, mb := range want.MBData {
			if !bytes.Equal(got[i].MBData[j], mb) {
				t.Fatalf("frame %d macroblock %d differs after the resend", i, j)
			}
		}
	}
}

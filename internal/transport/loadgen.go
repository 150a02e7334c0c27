package transport

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/ledger"
	"repro/internal/netem"
	"repro/internal/rtp"
	"repro/internal/stats"
)

// Load-generator harness for the multi-tenant ingest server: thousands
// of simulated mobile clients, each a goroutine with its own UDP socket
// and SSRC, pushing the same pre-encrypted clip through a client-side
// Gilbert–Elliott uplink (plus optional outage windows and a resume
// storm) and measuring per-session completion latency against the
// server's goodput.
//
// The wire segments are built once with buildSegments — packetized and
// encrypted under the session policy exactly like a resumable upload —
// and shared read-only by every client; each client re-wraps them in RTP
// headers carrying its own SSRC inside one reusable scratch buffer, so
// the steady-state send path allocates nothing per packet. All sessions
// therefore share one key and sequence space, which collapses cipher IVs
// across tenants: acceptable in an emulation harness whose subject is
// the server's concurrency behaviour, never in a deployment (real
// tenants hold per-session keys).

// LoadgenConfig shapes a load run. Clip, policy, key and MTU come from
// the Session passed to RunLoadgen.
type LoadgenConfig struct {
	// Sessions is how many concurrent simulated clients to run.
	Sessions int

	// BaseSSRC numbers the sessions BaseSSRC..BaseSSRC+Sessions-1
	// (default 0x10000).
	BaseSSRC uint32

	// MeanLoss/MeanBurst drive each client's Gilbert–Elliott uplink
	// (fraction of packets lost / mean drop-burst length). MeanLoss 0
	// disables loss; MeanBurst defaults to 4 when loss is on.
	MeanLoss  float64
	MeanBurst float64

	// Outages, when non-nil, blacks every client's uplink out during its
	// windows (measured from the start of the run).
	Outages *netem.OutageSchedule

	// ResumeFrac is the fraction of clients that cut their connection
	// halfway through the clip, go dark for ResumeGap (default 20ms),
	// then redial and re-send from the beginning — a resume storm the
	// server's dedup window must absorb.
	ResumeFrac float64
	ResumeGap  time.Duration

	// Gap paces each client's packets (0 = blast back to back).
	Gap time.Duration

	// AdmitProbe is how long a client listens for an admission reject
	// after its first packet (default 15ms); MaxAdmitRetries bounds how
	// often it retries after rejects (default 20) before giving up.
	AdmitProbe      time.Duration
	MaxAdmitRetries int

	// Seed makes the loss processes and retry jitter deterministic.
	Seed uint64
}

// LoadReport summarises one load run.
type LoadReport struct {
	Sessions     int           // clients launched
	Completed    int           // clients that sent their whole clip
	Unadmitted   int           // clients that gave up after admission rejects
	Resumes      int           // clients that cut and re-dialed mid-clip
	AdmitRetries int           // admission retries across all clients
	PacketsSent  int64         // datagrams clients actually wrote
	PacketsLost  int64         // datagrams eaten by the simulated uplink
	Elapsed      time.Duration // wall time of the whole run
	P50          time.Duration // median session completion latency
	P99          time.Duration // tail session completion latency
	GoodputBps   float64       // server-side payload bytes/second over the run
	Server       IngestTotals  // server counter deltas attributable to this run
}

func (r LoadReport) String() string {
	return fmt.Sprintf(
		"sessions=%d completed=%d unadmitted=%d resumes=%d admit_retries=%d\n"+
			"sent=%d lost=%d server_rx=%d dups=%d throttled=%d rejected=%d usable=%d\n"+
			"elapsed=%v p50=%v p99=%v goodput=%.1f KB/s",
		r.Sessions, r.Completed, r.Unadmitted, r.Resumes, r.AdmitRetries,
		r.PacketsSent, r.PacketsLost, r.Server.Packets, r.Server.Duplicates,
		r.Server.Throttled, r.Server.Rejected, r.Server.Usable,
		r.Elapsed.Round(time.Millisecond), r.P50.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.GoodputBps/1024)
}

type loadClientResult struct {
	latency    time.Duration
	sent       int64
	lost       int64
	retries    int
	resumed    bool
	completed  bool
	unadmitted bool
	err        error
}

// RunLoadgen drives cfg.Sessions concurrent clients against the ingest
// server and reports latency percentiles and goodput. The server is left
// running; sessions end with FIN datagrams (best-effort, so a handful
// may linger until idle eviction).
func RunLoadgen(srv *IngestServer, s Session, cfg LoadgenConfig) (LoadReport, error) {
	var rep LoadReport
	if cfg.Sessions <= 0 {
		return rep, fmt.Errorf("transport: loadgen needs at least one session")
	}
	if err := s.Validate(); err != nil {
		return rep, err
	}
	ledger.Emit(ledger.EventPolicy, "loadgen", 0, 0, s.Policy.Name())
	segs, err := buildSegments(s, 0)
	if err != nil {
		return rep, err
	}
	if cfg.BaseSSRC == 0 {
		cfg.BaseSSRC = 0x10000
	}
	if cfg.MeanLoss > 0 && cfg.MeanBurst <= 0 {
		cfg.MeanBurst = 4
	}
	if cfg.ResumeGap <= 0 {
		cfg.ResumeGap = 20 * time.Millisecond
	}
	if cfg.AdmitProbe <= 0 {
		cfg.AdmitProbe = 15 * time.Millisecond
	}
	if cfg.MaxAdmitRetries <= 0 {
		cfg.MaxAdmitRetries = 20
	}
	before := srv.Totals()
	addr := srv.Addr()
	results := make([]loadClientResult, cfg.Sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runLoadClient(addr, segs, s.MTU, cfg, i, start)
		}(i)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	rep.Sessions = cfg.Sessions
	var latencies []float64
	for i := range results {
		r := &results[i]
		rep.PacketsSent += r.sent
		rep.PacketsLost += r.lost
		rep.AdmitRetries += r.retries
		if r.resumed {
			rep.Resumes++
		}
		switch {
		case r.completed:
			rep.Completed++
			latencies = append(latencies, r.latency.Seconds())
			mLoadgenSessionSeconds.Observe(r.latency.Seconds())
		case r.unadmitted:
			rep.Unadmitted++
		}
		if err == nil && r.err != nil {
			err = r.err
		}
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		rep.P50 = time.Duration(stats.Percentile(latencies, 0.50) * float64(time.Second))
		rep.P99 = time.Duration(stats.Percentile(latencies, 0.99) * float64(time.Second))
	}
	after := srv.Totals()
	rep.Server = IngestTotals{
		Packets:          after.Packets - before.Packets,
		Usable:           after.Usable - before.Usable,
		Duplicates:       after.Duplicates - before.Duplicates,
		Throttled:        after.Throttled - before.Throttled,
		Rejected:         after.Rejected - before.Rejected,
		BadPackets:       after.BadPackets - before.BadPackets,
		Bytes:            after.Bytes - before.Bytes,
		SessionsStarted:  after.SessionsStarted - before.SessionsStarted,
		SessionsFinished: after.SessionsFinished - before.SessionsFinished,
		SessionsEvicted:  after.SessionsEvicted - before.SessionsEvicted,
	}
	if rep.Elapsed > 0 {
		rep.GoodputBps = float64(rep.Server.Bytes) / rep.Elapsed.Seconds()
		mLoadgenGoodputBps.Set(int64(rep.GoodputBps))
	}
	return rep, err
}

// runLoadClient is one simulated mobile client: admission probe with
// reject backoff, the clip pushed through a lossy uplink, an optional
// mid-clip cut-and-resume, and a FIN. The returned latency spans dial to
// FIN — admission retries and resume gaps included, which is what a user
// waiting on an upload experiences.
func runLoadClient(addr string, segs []wireSegment, mtu int, cfg LoadgenConfig, i int, runStart time.Time) loadClientResult {
	var res loadClientResult
	rng := stats.NewRNG(cfg.Seed*0x9E3779B9 + uint64(i) + 1)
	var drop netem.Dropper
	if cfg.MeanLoss > 0 {
		ge, err := netem.NewBurstyLoss(cfg.MeanLoss, cfg.MeanBurst, cfg.Seed+uint64(i)+1)
		if err != nil {
			res.err = err
			return res
		}
		drop = ge
	}
	ssrc := cfg.BaseSSRC + uint32(i)
	start := time.Now()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		res.err = err
		return res
	}
	defer func() { conn.Close() }() //nolint:errcheck // client teardown is best effort
	buf := make([]byte, rtp.HeaderSize+mtu+64)
	rbuf := make([]byte, 64)
	send := func(seg wireSegment) error {
		p := rtp.Packet{
			PayloadType: rtp.PayloadTypeVideo,
			Marker:      seg.encrypted,
			Sequence:    uint16(seg.seq),
			Timestamp:   uint32(seg.seq),
			SSRC:        ssrc,
			Payload:     seg.payload(),
		}
		_, werr := conn.Write(p.MarshalInto(buf))
		if werr == nil {
			res.sent++
		}
		return werr
	}

	// Admission probe: push the first segment, listen briefly for a
	// reject. Silence means admitted (the server sends nothing on the
	// happy path); a reject datagram means back off and try again.
	admitted := false
	for try := 0; try <= cfg.MaxAdmitRetries; try++ {
		if err := send(segs[0]); err != nil {
			res.err = err
			return res
		}
		conn.SetReadDeadline(time.Now().Add(cfg.AdmitProbe)) //nolint:errcheck // UDP deadline set cannot fail
		n, rerr := conn.Read(rbuf)
		if rerr != nil {
			admitted = true // timeout: no reject arrived
			break
		}
		if retryAfter, ok := parseReject(rbuf[:n]); ok {
			res.retries++
			// Jittered backoff around the server's hint so a thundering
			// herd of rejected clients does not re-arrive in lockstep.
			time.Sleep(time.Duration((0.75 + 0.5*rng.Float64()) * float64(retryAfter)))
			continue
		}
		admitted = true // some other datagram; treat as admitted
		break
	}
	if !admitted {
		res.unadmitted = true
		res.latency = time.Since(start)
		return res
	}

	resumeAt := -1
	if cfg.ResumeFrac > 0 && rng.Bool(cfg.ResumeFrac) {
		resumeAt = len(segs) / 2
	}
	idx := 1
	for idx < len(segs) {
		if idx == resumeAt && !res.resumed {
			// Connection cut mid-clip: go dark, redial, start over from
			// segment zero. The server's dedup window absorbs the replays.
			res.resumed = true
			conn.Close() //nolint:errcheck // the cut IS the scenario
			time.Sleep(cfg.ResumeGap)
			conn, err = net.Dial("udp", addr)
			if err != nil {
				res.err = err
				return res
			}
			idx = 0
			continue
		}
		seg := segs[idx]
		lost := false
		if cfg.Outages != nil && cfg.Outages.ActiveAt(time.Since(runStart)) {
			lost = true
		} else if drop != nil && drop.DropSeq(seg.seq) {
			lost = true
		}
		if lost {
			res.lost++
		} else if err := send(seg); err != nil {
			res.err = err
			return res
		}
		if cfg.Gap > 0 {
			time.Sleep(cfg.Gap)
		}
		idx++
	}
	// Close the session eagerly; duplicated because FINs are as lossy as
	// everything else, and a lost FIN only defers to idle eviction. The
	// short pause lets tail data packets clear the reader pool first —
	// a FIN overtaking them on another reader would resurrect the session.
	time.Sleep(2 * time.Millisecond)
	fin := marshalFIN(ssrc)
	conn.Write(fin) //nolint:errcheck // best effort, like the medium
	conn.Write(fin) //nolint:errcheck // best effort, like the medium
	res.completed = true
	res.latency = time.Since(start)
	return res
}

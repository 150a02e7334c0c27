package main

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/transport"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// stream_paced: the paper's Fig 7/8 live scenario. One 30 fps stream of
// the clip, looped by renumbering, released on the camera schedule by the
// CLI's default sender (LiveUDPSend, paced, with keystream prefetch) to a
// keyed LiveReceiver and an eavesdropper LiveReceiver in the server
// process. Open loop; the CPU stays mostly idle, so the workload shows
// pacing and wake-up cost rather than throughput.

const streamName = "stream_paced"

// streamPolicy encrypts I-frames under AES256 (OFB), the CLI default.
var streamPolicy = vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}

// waitTimeout bounds how long the server waits for one frame's packets.
const waitTimeout = 5 * time.Second

func runStream(p params) (*result, error) {
	n := int(p.seconds * fps)
	if n < 1 {
		return nil, fmt.Errorf("%s: a %gs window holds no frame", streamName, p.seconds)
	}
	key := keyFor(p.seed, streamPolicy.Alg)
	var c *clip
	h, err := setUp(func() (childSpec, error) {
		var err error
		c, err = makeClip(p, streamName)
		return childSpec{Workload: streamName, Clip: c.path, Policy: streamPolicy, Key: key, Frames: n}, err
	})
	if err != nil {
		return nil, err
	}
	defer h.stop()
	stream := loop(c.frames, n)
	sess := transport.Session{Config: c.cfg, Encoded: stream, FPS: fps, MTU: mtu, Policy: streamPolicy, Key: key}

	if err := h.open(); err != nil {
		return nil, err
	}
	rep, sendErr := transport.LiveUDPSend(sess, h.server.addrs[0], h.server.addrs[1], true)
	m, err := h.close(0)
	if sendErr != nil {
		return nil, fmt.Errorf("%s: send: %w", streamName, sendErr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", streamName, err)
	}
	srv := m.server

	r := newResult(streamName, p.seed)
	lat, slack := frameLatencies(srv.First, srv.Done, fps)
	r.Attempted = n
	r.Failed = srv.BadFrames
	r.setCommon(m, float64(framesBytes(stream))/1e6, srv.Captured)
	r.setLatency(lat)
	r.set("pacing.slack_p50_ms", percentile(slack, 50))
	r.set("pacing.slack_p99_ms", percentile(slack, highestPercentile(len(slack))))
	r.set("eavesdropper.psnr_db", srv.EvPSNR)
	r.set("transport.udp.encrypted_frac", float64(rep.Encrypted)/float64(rep.Packets))
	r.set("transport.udp.crypto_us_per_pkt", float64(rep.CryptoTime.Microseconds())/float64(max(rep.Encrypted, 1)))
	r.gate("receiver frames byte-identical", srv.BadFrames == 0, "%d of %d frames differ", srv.BadFrames, n)
	r.gate("eavesdropper sees exactly the unmarked packets", srv.EvBadFrames == 0, "%d of %d frames differ from the plaintext-only reassembly", srv.EvBadFrames, n)
	r.gate("every packet delivered once", srv.Captured == rep.Packets && srv.Usable == rep.Packets && srv.Duplicates == 0,
		"sent %d, captured %d, usable %d, duplicates %d", rep.Packets, srv.Captured, srv.Usable, srv.Duplicates)
	if p.trace {
		rp, err := replayStream(c, key)
		if err != nil {
			return nil, err
		}
		r.addLayers(c, rp)
	}
	return r, nil
}

// streamServer is the server half: the keyed receiver, the eavesdropper,
// and a waiter that stamps when each frame's first and last packets are
// captured.
type streamServer struct {
	cfg     codec.Config
	clip    []*codec.EncodedFrame
	stream  []*codec.EncodedFrame
	policy  vcrypt.Policy
	cum     []int // packets through frame f
	rx, ev  *transport.LiveReceiver
	first   []int64
	done    []int64
	waited  chan struct{}
	started time.Time
}

func newStreamServer(spec childSpec, cfg codec.Config, clipFrames []*codec.EncodedFrame) (server, error) {
	s := &streamServer{cfg: cfg, clip: clipFrames, stream: loop(clipFrames, spec.Frames), policy: spec.Policy, waited: make(chan struct{})}
	counts, err := packetCounts(s.stream)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, k := range counts {
		total += k
		s.cum = append(s.cum, total)
	}
	s.first = make([]int64, len(s.stream))
	s.done = make([]int64, len(s.stream))
	for i := range s.first {
		s.first[i], s.done[i] = -1, -1
	}
	if s.rx, err = transport.NewLiveReceiver(cfg, spec.Policy.Alg, spec.Key, "127.0.0.1:0", 0, 1); err != nil {
		return nil, err
	}
	if s.ev, err = transport.NewLiveReceiver(cfg, spec.Policy.Alg, nil, "127.0.0.1:0", 0, 1); err != nil {
		s.rx.Close()
		return nil, err
	}
	return s, nil
}

func (s *streamServer) addrs() []string { return []string{s.rx.Addr(), s.ev.Addr()} }

func (s *streamServer) start() {
	s.started = time.Now()
	go s.wait()
}

func (s *streamServer) wait() {
	defer close(s.waited)
	prev := 0
	for f, through := range s.cum {
		if s.rx.WaitForPackets(prev+1, waitTimeout) != nil {
			return
		}
		s.first[f] = time.Since(s.started).Nanoseconds()
		if s.rx.WaitForPackets(through, waitTimeout) != nil {
			return
		}
		s.done[f] = time.Since(s.started).Nanoseconds()
		prev = through
	}
}

// drain waits for the keyed receiver's last frame and for the
// eavesdropper, which captures each datagram just after it.
func (s *streamServer) drain() {
	<-s.waited
	// A timeout leaves frames missing, which the check reports.
	_ = s.ev.WaitForPackets(s.cum[len(s.cum)-1], waitTimeout)
}

func (s *streamServer) check(res *childResult) {
	n := len(s.stream)
	res.First, res.Done = s.first, s.done
	res.Captured, res.Usable = s.rx.Stats()
	res.Duplicates = s.rx.Duplicates()
	res.BadFrames = badFrames(s.rx.Frames(n), s.stream)
	ev := s.ev.Frames(n)
	want, err := plainView(s.stream, s.cfg, s.policy)
	if err != nil {
		res.EvBadFrames = n
		return
	}
	res.EvBadFrames = badFrames(ev, want)
	// The eavesdropper's picture quality over the first pass of the clip.
	k := min(n, len(s.clip))
	orig, err1 := codec.DecodeSequence(s.clip[:k], s.cfg)
	seen, err2 := codec.DecodeSequence(ev[:k], s.cfg)
	if err1 == nil && err2 == nil {
		res.EvPSNR = video.SequencePSNR(orig, seen)
	}
}

func (s *streamServer) close() {
	s.rx.Close()
	s.ev.Close()
}

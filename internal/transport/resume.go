package transport

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/ledger"
	"repro/internal/netem"
	"repro/internal/vcrypt"
)

// ResumeReport extends HTTPUploadReport with robustness accounting. The
// wire counters (Segments, Bytes, Encrypted) include retransmitted
// segments, so comparing Segments against the clip's segment count shows
// the retry overhead.
type ResumeReport struct {
	HTTPUploadReport
	Attempts     int           // POST attempts issued
	Resumes      int           // attempts that resumed from a non-zero offset
	Downgrades   int           // encryption-policy downgrades taken
	Restarts     int           // re-encode restarts taken
	BackoffTotal time.Duration // time spent sleeping between attempts
	FinalPolicy  vcrypt.Policy // policy in force when the transfer ended
}

// wireSegment is one pre-encrypted framed segment: the segment header
// followed by the payload, a sub-slice of the upload's segment store
// with cap = len. Rebuilding the exact bytes for any seq makes resumed
// attempts byte-identical to the original ones (the per-seq cipher IV
// fixes the keystream), so the store is built once and every attempt
// reads from it.
type wireSegment struct {
	seq       uint64
	encrypted bool
	wire      []byte // segment header followed by the payload
}

// payload returns the segment's (possibly encrypted) slice payload.
func (seg wireSegment) payload() []byte { return seg.wire[segmentHeaderSize:] }

// segmentPool recycles the marshaling buffers of buildSegments. Every
// buffer is back in the pool before buildSegments returns, so one pool
// serves all uploads and back-to-back uploads allocate none.
var segmentPool = codec.NewBufPool()

// storeChunk is the size of the byte chunks a segment store is carved
// from. Segments are packed back to back; a segment larger than a chunk
// gets a chunk of its own.
const storeChunk = 64 << 10

// buildSegments packetizes and encrypts the whole session starting at
// the given base sequence into one segment store. Each packet is
// marshaled into a segmentPool buffer behind segmentHeaderSize bytes of
// headroom, copied with its headroom into the current store chunk, and
// the buffer goes straight back to the pool; the segment header is
// written into the copy and the payload is encrypted there in place. A
// clip thus costs one allocation per store chunk, not one per packet,
// and consecutive segments are contiguous, so the upload body reads
// many of them with one copy.
func buildSegments(s Session, base uint64) ([]wireSegment, error) {
	cipher, err := vcrypt.NewCipher(s.Policy.Alg, s.Key)
	if err != nil {
		return nil, err
	}
	selector, err := vcrypt.NewSelector(s.Policy)
	if err != nil {
		return nil, err
	}
	var (
		out   []wireSegment
		wps   []codec.WirePacket
		chunk []byte // store chunk being filled; its bytes never move
	)
	seq := base
	for _, ef := range s.Encoded {
		wps, err = codec.PacketizeInto(ef, s.MTU, segmentHeaderSize, segmentPool, wps[:0])
		if err != nil {
			return nil, err
		}
		for i := range wps {
			pkt := &wps[i]
			n := len(pkt.Payload)
			// The frame type is read before the buffer goes back to the
			// pool.
			encrypted := selector.ShouldEncrypt(pkt.IsIFrame())
			size := segmentHeaderSize + n
			if cap(chunk)-len(chunk) < size {
				chunk = make([]byte, 0, max(storeChunk, size))
			}
			off := len(chunk)
			chunk = append(chunk, pkt.Wire(n)...)
			segmentPool.Put(pkt)
			wire := chunk[off:len(chunk):len(chunk)]
			putSegmentHeader(wire, seq, encrypted, n)
			if encrypted {
				cipher.EncryptPacket(seq, wire[segmentHeaderSize:][:s.Policy.EncryptSpan(n)])
				if span := s.Policy.EncryptSpan(n); span < n {
					ledger.Emit(ledger.EventHeaderOnly, "segments", seq, uint64(span), "")
				}
			} else {
				ledger.Emit(ledger.EventPlainPacket, "segments", seq, uint64(n), "")
			}
			out = append(out, wireSegment{seq: seq, encrypted: encrypted, wire: wire})
			seq++
		}
	}
	return out, nil
}

// queryNextSeq asks the server for the resume point of one session (the
// empty sid is the default session).
func queryNextSeq(client *http.Client, url, sid string, timeout time.Duration) (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	if sid != "" {
		req.Header.Set(SessionHeader, sid)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("transport: resume query status %s", resp.Status)
	}
	h := resp.Header.Get(NextSeqHeader)
	if h == "" {
		return 0, fmt.Errorf("transport: server does not report %s", NextSeqHeader)
	}
	return strconv.ParseUint(h, 10, 64)
}

// segmentBody is the request body of one upload attempt: the wire
// bytes of its segments, back to back. Each Read copies as many whole
// segments as fit (net/http reads a chunked body through a 32 KiB
// buffer, so each HTTP chunk carries about 50 segments); with a pacer,
// each Read first waits for and then returns exactly one segment, so
// pacing keeps its per-segment granularity. The counters cover the
// segments whose last byte has been read. The transport reads the body
// on its own goroutine and may close it after RoundTrip returns, so the
// counters are final, and safe to read, only once done is closed.
type segmentBody struct {
	segs  []wireSegment // segments not yet read in full
	off   int           // bytes of segs[0] already read
	pacer *netem.Pacer

	sent, sentBytes, sentEnc int

	once sync.Once
	done chan struct{} // closed by Close
}

func newSegmentBody(segs []wireSegment, pacer *netem.Pacer) *segmentBody {
	return &segmentBody{segs: segs, pacer: pacer, done: make(chan struct{})}
}

// Read implements io.Reader.
func (b *segmentBody) Read(p []byte) (int, error) {
	n := 0
	for len(b.segs) > 0 && n < len(p) {
		seg := b.segs[0]
		if b.off == 0 && b.pacer != nil {
			b.pacer.Wait(len(seg.wire))
		}
		c := copy(p[n:], seg.wire[b.off:])
		n += c
		if b.off += c; b.off < len(seg.wire) {
			break
		}
		b.off = 0
		b.segs = b.segs[1:]
		b.sent++
		b.sentBytes += len(seg.wire)
		if seg.encrypted {
			b.sentEnc++
		}
		if b.pacer != nil {
			break
		}
	}
	if n == 0 && len(b.segs) == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Close implements io.Closer; the transport calls it once it is done
// with the body, possibly more than once.
func (b *segmentBody) Close() error {
	b.once.Do(func() { close(b.done) })
	return nil
}

// bodyCloseGrace is how long postSegments waits, once an attempt has
// timed out, for the transport to close the request body.
const bodyCloseGrace = time.Second

// postSegments streams one upload attempt and reports what crossed into
// the transport before it ended: the segments the transport read from
// the body in full. The counts are read once the client's transport has
// closed the request body, as http.RoundTripper requires it to. A
// transport that has not closed it bodyCloseGrace after the attempt's
// timeout fails the attempt with zero counts, since the body may still
// be in use.
func postSegments(client *http.Client, url, sid string, segs []wireSegment, restartBase string, pacer *netem.Pacer, timeout time.Duration) (sent, sentBytes, sentEnc int, next uint64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	body := newSegmentBody(segs, pacer)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if sid != "" {
		req.Header.Set(SessionHeader, sid)
	}
	if restartBase != "" {
		req.Header.Set(RestartHeader, restartBase)
	}
	resp, err := client.Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		resp.Body.Close()
	}
	// The transport closes the body even on errors, possibly after Do
	// returned; only then are the counters final.
	select {
	case <-body.done:
	case <-ctx.Done():
		select {
		case <-body.done:
		case <-time.After(bodyCloseGrace):
			return 0, 0, 0, 0, fmt.Errorf("transport: request body still open %v after the attempt timed out", bodyCloseGrace)
		}
	}
	sent, sentBytes, sentEnc = body.sent, body.sentBytes, body.sentEnc
	if err != nil {
		return sent, sentBytes, sentEnc, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return sent, sentBytes, sentEnc, 0, fmt.Errorf("transport: upload attempt status %s", resp.Status)
	}
	next, err = strconv.ParseUint(resp.Header.Get(NextSeqHeader), 10, 64)
	if err != nil {
		return sent, sentBytes, sentEnc, 0, fmt.Errorf("transport: bad %s on success: %w", NextSeqHeader, err)
	}
	return sent, sentBytes, sentEnc, next, nil
}

// nextEpoch returns a fresh sequence-epoch base strictly above every
// sequence used so far, aligned to a 2^32 boundary so old and new
// streams can never share a cipher IV.
func nextEpoch(used uint64) uint64 {
	return (used>>32 + 1) << 32
}

// ResumableHTTPUpload streams the session to the server URL, optionally
// pacing the body through a netem.Pacer to emulate the WiFi bottleneck,
// and survives a faulty link: each attempt runs under a per-attempt timeout,
// consecutive failures back off exponentially (capped, jittered,
// deterministic under rp.Seed), and every retry first asks the server
// for its highest contiguous sequence and resumes there instead of
// re-sending acknowledged segments; a retry whose query fails sends
// nothing and counts as one more failed attempt. When the retry budget
// or the transfer deadline is exhausted, the degrader (when non-nil)
// makes the remaining work cheaper — first by downgrading the
// encryption policy, then by re-encoding the clip at reduced quality and
// restarting under a fresh sequence epoch — rather than failing the
// transfer.
func ResumableHTTPUpload(s Session, url string, pacer *netem.Pacer, rp RetryPolicy, deg Degrader) (ResumeReport, error) {
	var rep ResumeReport
	rp = rp.withDefaults()
	if err := s.Validate(); err != nil {
		return rep, err
	}
	ledger.Emit(ledger.EventPolicy, "resume", 0, 0, s.Policy.Name())
	segs, err := buildSegments(s, 0)
	if err != nil {
		return rep, err
	}
	rep.FinalPolicy = s.Policy
	backoff := NewBackoff(rp)
	client := &http.Client{}
	start := time.Now()
	var deadlineAt time.Time
	if rp.Deadline > 0 {
		deadlineAt = start.Add(rp.Deadline)
	}
	var (
		base       uint64 // sequence of segs[0] (current epoch)
		serverNext uint64 // last known server resume point
		failures   int    // consecutive attempts without server progress
		lastErr    error
	)
	for {
		// A failed resume query means the link is still dark. A POST now
		// would stream segments into a connection that is going down:
		// they would count as sent and, on a real link, cost radio
		// energy. Skip it, count a failed attempt and back off.
		var qerr error
		if rep.Attempts > 0 {
			var got uint64
			if got, qerr = queryNextSeq(client, url, s.SessionID, rp.AttemptTimeout); qerr == nil {
				serverNext = got
			}
		}
		progressed := false
		if qerr != nil {
			lastErr = qerr
		} else {
			restartHdr := ""
			idx := 0
			if serverNext < base {
				// The server has not seen this epoch yet: announce it.
				restartHdr = strconv.FormatUint(base, 10)
			} else {
				idx = len(segs)
				if off := serverNext - base; off < uint64(len(segs)) {
					idx = int(off)
				}
			}
			rep.Attempts++
			mUploadAttempts.Inc()
			if idx > 0 {
				rep.Resumes++
				mUploadResumes.Inc()
			}
			attemptStart := time.Now()
			sent, bytes, enc, next, err := postSegments(client, url, s.SessionID, segs[idx:], restartHdr, pacer, rp.AttemptTimeout)
			mUploadAttemptSeconds.Observe(time.Since(attemptStart).Seconds())
			rep.Segments += sent
			rep.Bytes += bytes
			rep.Encrypted += enc
			mSegmentsSent.Add(int64(sent))
			mSegmentBytesSent.Add(int64(bytes))
			mSegmentsEncrypted.Add(int64(enc))
			if err == nil {
				if want := base + uint64(len(segs)); next != want {
					err = fmt.Errorf("transport: server acknowledged %d, want %d", next, want)
				} else {
					rep.Elapsed = time.Since(start)
					return rep, nil
				}
			}
			lastErr = err
			// Partial progress still counts: if the server advanced, reset
			// the failure streak and the backoff growth.
			if got, qerr := queryNextSeq(client, url, s.SessionID, rp.AttemptTimeout); qerr == nil && got > serverNext {
				serverNext = got
				progressed = true
			}
		}
		if progressed {
			failures = 0
			backoff.Reset()
		} else {
			failures++
		}
		// Exhaustion: too many fruitless attempts, or sleeping the next
		// backoff would blow the deadline (waiting out a dark link is
		// pointless once the budget cannot cover it).
		gap := backoff.Next()
		deadlineBlown := !deadlineAt.IsZero() && time.Now().Add(gap).After(deadlineAt)
		if failures >= rp.MaxAttempts || deadlineBlown {
			var (
				ns      Session
				restart bool
				ok      bool
			)
			if deg != nil {
				ns, restart, ok = deg.Degrade(s)
			}
			if !ok {
				rep.Elapsed = time.Since(start)
				return rep, fmt.Errorf("transport: upload failed after %d attempts: %w", rep.Attempts, lastErr)
			}
			oldPolicy := s.Policy.Name()
			s = ns
			rep.FinalPolicy = s.Policy
			if restart {
				base = nextEpoch(base + uint64(len(segs)))
				rep.Restarts++
				mUploadRestarts.Inc()
				ledger.Emit(ledger.EventReencode, "resume", 0, 0, oldPolicy)
				ledger.Emit(ledger.EventEpoch, "resume", base, 0, "")
			} else {
				rep.Downgrades++
				mUploadDowngrades.Inc()
				ledger.Emit(ledger.EventDowngrade, "resume", 0, 0, oldPolicy+" -> "+s.Policy.Name())
			}
			if segs, err = buildSegments(s, base); err != nil {
				rep.Elapsed = time.Since(start)
				return rep, err
			}
			// The degraded transfer earns a fresh budget and a fresh
			// backoff schedule.
			failures = 0
			backoff.Reset()
			gap = backoff.Next()
			if rp.Deadline > 0 {
				deadlineAt = time.Now().Add(rp.Deadline)
			}
		}
		rep.BackoffTotal += gap
		mUploadBackoffSeconds.Add(gap.Seconds())
		rp.Sleep(gap)
	}
}

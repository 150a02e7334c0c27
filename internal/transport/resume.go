package transport

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
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

// wireSegment is one pre-encrypted framed segment; rebuilding the exact
// bytes for any seq makes resumed attempts byte-identical to the
// original ones (the per-seq cipher IV fixes the keystream).
type wireSegment struct {
	seq       uint64
	encrypted bool
	wire      []byte // segment header followed by the payload
}

// payload returns the segment's (possibly encrypted) slice payload.
func (seg wireSegment) payload() []byte { return seg.wire[segmentHeaderSize:] }

// buildSegments packetizes and encrypts the whole session starting at
// the given base sequence. Each packet is marshaled behind
// segmentHeaderSize bytes of headroom; the segment header is written
// there and the payload is encrypted in place, so a segment is one
// contiguous slice that crosses the transport in a single write.
func buildSegments(s Session, base uint64) ([]wireSegment, error) {
	cipher, err := vcrypt.NewCipher(s.Policy.Alg, s.Key)
	if err != nil {
		return nil, err
	}
	selector, err := vcrypt.NewSelector(s.Policy)
	if err != nil {
		return nil, err
	}
	var out []wireSegment
	var wps []codec.WirePacket
	seq := base
	for _, ef := range s.Encoded {
		wps, err = codec.PacketizeInto(ef, s.MTU, segmentHeaderSize, nil, wps[:0])
		if err != nil {
			return nil, err
		}
		for i := range wps {
			pkt := &wps[i]
			// The pool-less zero-copy path hands each packet its own
			// buffer, so the segment owns it outright; Retain makes the
			// transfer of ownership to the segment store explicit.
			n := len(pkt.Payload)
			encrypted := selector.ShouldEncrypt(pkt.IsIFrame())
			wire := pkt.Wire(n)
			//lint:retain(segment store keeps every segment alive across resumed attempts)
			pkt.Retain()
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

// postSegments streams one upload attempt and reports what crossed into
// the transport before it ended.
func postSegments(client *http.Client, url, sid string, segs []wireSegment, restartBase string, pacer *netem.Pacer, timeout time.Duration) (sent, sentBytes, sentEnc int, next uint64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, seg := range segs {
			if pacer != nil {
				pacer.Wait(len(seg.wire))
			}
			if _, werr := pw.Write(seg.wire); werr != nil {
				pw.CloseWithError(werr) //lint:allow bitioerr pipe CloseWithError is documented to always return nil
				return
			}
			sent++
			sentBytes += len(seg.wire)
			if seg.encrypted {
				sentEnc++
			}
		}
		pw.Close() //lint:allow bitioerr pipe Close is documented to always return nil
	}()
	collect := func() {
		pr.Close() //lint:allow bitioerr pipe Close always returns nil; this only unblocks a dead writer
		<-done
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
	if err != nil {
		collect()
		return sent, sentBytes, sentEnc, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if sid != "" {
		req.Header.Set(SessionHeader, sid)
	}
	if restartBase != "" {
		req.Header.Set(RestartHeader, restartBase)
	}
	resp, err := client.Do(req)
	if err != nil {
		collect()
		return sent, sentBytes, sentEnc, 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	collect()
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

// ResumableHTTPUpload uploads the session like LiveHTTPUpload but
// survives a faulty link: each attempt runs under a per-attempt timeout,
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

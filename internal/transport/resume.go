package transport

import (
	"context"
	"errors"
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

// storeChunk is the size of the byte chunks a segment store is carved
// from. Segments are packed back to back; a segment larger than a chunk
// gets a chunk of its own.
const storeChunk = 64 << 10

// maxFreeChunks bounds the free list of store chunks: 32 chunks, 2 MiB,
// about three CIF clips' stores.
const maxFreeChunks = 32

// freeChunks holds the store chunks of ended uploads for the next
// store to fill, and one ended upload's segment list for the next build
// to append to. Only chunks of exactly storeChunk bytes are kept.
var freeChunks struct {
	mu     sync.Mutex
	chunks [][]byte
	segs   []wireSegment
}

// segmentStore holds the store chunks of one upload, every chunk any of
// its builds filled, and the segment list of its latest build.
type segmentStore struct {
	chunks [][]byte
	segs   []wireSegment
}

// buildSegments packetizes and encrypts the whole session starting at
// the given base sequence into a store of its own. Its chunks are never
// recycled.
func buildSegments(s Session, base uint64) ([]wireSegment, error) {
	var st segmentStore
	return st.build(s, base)
}

// build packetizes and encrypts the whole session starting at the given
// base sequence into new segments in the store. Each slice is marshaled
// straight into the current store chunk behind segmentHeaderSize bytes,
// the segment header is written in front of it and the payload is
// encrypted there in place. A clip thus costs one chunk per 64 KiB of
// segments, taken from the free list when it holds one, and consecutive
// segments are contiguous, so the upload body reads many of them with
// one copy. The chunks of earlier builds stay with the store until
// release.
func (st *segmentStore) build(s Session, base uint64) ([]wireSegment, error) {
	cipher, err := vcrypt.NewCipher(s.Policy.Alg, s.Key)
	if err != nil {
		return nil, err
	}
	selector, err := vcrypt.NewSelector(s.Policy)
	if err != nil {
		return nil, err
	}
	freeChunks.mu.Lock()
	out := freeChunks.segs
	freeChunks.segs = nil
	freeChunks.mu.Unlock()
	var chunk []byte // store chunk being filled; its bytes never move
	seq := base
	for _, ef := range s.Encoded {
		sl, err := codec.NewSlicer(ef, s.MTU)
		if err != nil {
			return nil, err
		}
		for sl.Next() {
			n := sl.Len()
			encrypted := selector.ShouldEncrypt(ef.Type == codec.IFrame)
			size := segmentHeaderSize + n
			if cap(chunk)-len(chunk) < size {
				chunk = st.newChunk(size)
			}
			off := len(chunk)
			chunk = sl.Append(chunk[:off+segmentHeaderSize])
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
	st.segs = out
	return out, nil
}

// newChunk returns an empty store chunk with room for size bytes and
// records it in the store: one from the free list when size fits a
// storeChunk and the list has one, else a new one, larger than
// storeChunk only for a segment that needs it.
func (st *segmentStore) newChunk(size int) []byte {
	var c []byte
	if size <= storeChunk {
		freeChunks.mu.Lock()
		if k := len(freeChunks.chunks); k > 0 {
			c = freeChunks.chunks[k-1]
			freeChunks.chunks[k-1] = nil
			freeChunks.chunks = freeChunks.chunks[:k-1]
		}
		freeChunks.mu.Unlock()
	}
	if c == nil {
		c = make([]byte, 0, max(storeChunk, size))
	}
	st.chunks = append(st.chunks, c)
	return c
}

// release gives the store's chunks and its latest segment list to the
// free list, as far as the bound allows, and empties the store. The
// caller must know that nothing reads its segments any more: every
// request body that held them has been closed.
func (st *segmentStore) release() {
	clear(st.segs) // a recycled list pins no chunk
	freeChunks.mu.Lock()
	for _, c := range st.chunks {
		if cap(c) == storeChunk && len(freeChunks.chunks) < maxFreeChunks {
			freeChunks.chunks = append(freeChunks.chunks, c[:0])
		}
	}
	if cap(st.segs) > cap(freeChunks.segs) {
		freeChunks.segs = st.segs[:0]
	}
	freeChunks.mu.Unlock()
	st.chunks, st.segs = nil, nil
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
//
// Read copies with mu held and Close takes mu, so once Close has
// returned no Read is copying from the store and none ever will: a
// closed body no longer holds its segments' chunks.
type segmentBody struct {
	segs  []wireSegment // segments not yet read in full
	off   int           // bytes of segs[0] already read
	pacer *netem.Pacer

	sent, sentBytes, sentEnc int

	mu     sync.Mutex
	closed bool
	once   sync.Once
	done   chan struct{} // closed by Close
}

func newSegmentBody(segs []wireSegment, pacer *netem.Pacer) *segmentBody {
	return &segmentBody{segs: segs, pacer: pacer, done: make(chan struct{})}
}

// Read implements io.Reader.
func (b *segmentBody) Read(p []byte) (int, error) {
	if b.pacer != nil && b.off == 0 && len(b.segs) > 0 {
		b.pacer.Wait(len(b.segs[0].wire))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, errBodyClosed
	}
	n := 0
	for len(b.segs) > 0 && n < len(p) {
		seg := b.segs[0]
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
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.once.Do(func() { close(b.done) })
	return nil
}

var (
	// errBodyClosed is what a Read after Close returns.
	errBodyClosed = errors.New("transport: read from a closed upload body")
	// errBodyOpen fails an attempt whose transport had not closed the
	// request body bodyCloseGrace after the attempt timed out.
	errBodyOpen = errors.New("transport: request body still open after the attempt timed out")
)

// bodyCloseGrace is how long postSegments waits, once an attempt has
// timed out, for the transport to close the request body.
const bodyCloseGrace = time.Second

// postSegments streams one upload attempt and reports what crossed into
// the transport before it ended: the segments the transport read from
// the body in full. The counts are read once the client's transport has
// closed the request body, as http.RoundTripper requires it to. A
// transport that has not closed it bodyCloseGrace after the attempt's
// timeout fails the attempt with errBodyOpen and zero counts, since the
// body may still be in use; the store its segments live in must then
// never be recycled.
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
			return 0, 0, 0, 0, fmt.Errorf("%w (waited %v)", errBodyOpen, bodyCloseGrace)
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
	return resumableUpload(&http.Client{}, s, url, pacer, rp, deg)
}

// resumableUpload is ResumableHTTPUpload over the given client.
func resumableUpload(client *http.Client, s Session, url string, pacer *netem.Pacer, rp RetryPolicy, deg Degrader) (ResumeReport, error) {
	var rep ResumeReport
	rp = rp.withDefaults()
	if err := s.Validate(); err != nil {
		return rep, err
	}
	ledger.Emit(ledger.EventPolicy, "resume", 0, 0, s.Policy.Name())
	var st segmentStore
	segs, err := st.build(s, 0)
	if err != nil {
		return rep, err
	}
	// The store's chunks are recycled on return unless a transport kept
	// an attempt's body open past its grace: it may still read them.
	bodyOpen := false
	defer func() {
		if !bodyOpen {
			st.release()
		}
	}()
	rep.FinalPolicy = s.Policy
	backoff := NewBackoff(rp)
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
			bodyOpen = bodyOpen || errors.Is(err, errBodyOpen)
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
			if segs, err = st.build(s, base); err != nil {
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

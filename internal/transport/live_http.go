package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/vcrypt"
)

// HTTP/TCP transfer mode (Section 6.4). The upload body is a sequence of
// segments, each carrying the encrypted-flag in its header — the paper's
// "Marker bit in the option header" moved into an application framing
// header, which is equivalent for the receiver's decrypt-or-not decision:
//
//	flags(1) | seq(8, big endian) | length(4) | payload
//
// The eavesdropper overhears the TCP stream on the WiFi channel; the
// server exposes a Tap so a capture pipeline with its own loss filter can
// be attached, standing in for tcpdump on the open network.

const segmentHeaderSize = 1 + 8 + 4

const flagEncrypted = 0x01

// NextSeqHeader carries the server's next-needed (highest contiguous)
// sequence number on every response, so an interrupted client can resume
// from exactly where the server stopped instead of re-sending the clip.
const NextSeqHeader = "X-Thrifty-Next-Seq"

// RestartHeader announces a fresh sequence epoch on a POST: the client
// abandoned the previous stream (e.g. after a reduced-quality re-encode)
// and restarts at the given base sequence. The epoch jump keeps per-seq
// cipher IVs unique across the old and new clip bytes.
const RestartHeader = "X-Thrifty-Restart"

// SessionHeader names the upload session a request belongs to, letting
// one server carry many tenants' clips at once, each with its own
// reassembler and resume cursor. Requests without it use the default
// session, preserving the original single-flow behaviour.
const SessionHeader = "X-Thrifty-Session"

// putSegmentHeader writes the header of an n-byte segment into hdr's
// first segmentHeaderSize bytes. The flags byte is stored
// unconditionally: on the zero-copy path hdr is the headroom of a
// recycled wire buffer still holding a previous packet's bytes.
func putSegmentHeader(hdr []byte, seq uint64, encrypted bool, n int) {
	hdr[0] = 0
	if encrypted {
		hdr[0] = flagEncrypted
	}
	binary.BigEndian.PutUint64(hdr[1:9], seq)
	binary.BigEndian.PutUint32(hdr[9:13], uint32(n))
}

// WriteSegment frames one payload.
func WriteSegment(w io.Writer, seq uint64, encrypted bool, payload []byte) error {
	var hdr [segmentHeaderSize]byte
	putSegmentHeader(hdr[:], seq, encrypted, len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadSegment parses one framed segment into a freshly allocated
// payload.
func ReadSegment(r io.Reader) (seq uint64, encrypted bool, payload []byte, err error) {
	return readSegmentInto(r, nil)
}

// readSegmentInto parses one framed segment into buf, growing it when
// the segment does not fit. The payload is a prefix of the (possibly
// regrown) buffer, so a caller that passes each payload back as the next
// buf reads a whole request body with one buffer.
func readSegmentInto(r io.Reader, buf []byte) (seq uint64, encrypted bool, payload []byte, err error) {
	var hdr [segmentHeaderSize]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, false, nil, err
	}
	encrypted = hdr[0]&flagEncrypted != 0
	seq = binary.BigEndian.Uint64(hdr[1:9])
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > 1<<24 {
		return 0, false, nil, fmt.Errorf("transport: implausible segment of %d bytes", n)
	}
	if buf == nil || uint64(cap(buf)) < uint64(n) {
		buf = make([]byte, n)
	}
	buf = buf[:cap(buf)]
	if uint64(len(buf)) < uint64(n) {
		return 0, false, nil, fmt.Errorf("transport: segment buffer of %d bytes for %d", len(buf), n)
	}
	payload = buf[:n]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, false, nil, err
	}
	return seq, encrypted, payload, nil
}

// httpSession is the receive state of one upload session: one tenant's
// clip, resume cursor and duplicate accounting. The resume cursor is the
// dedup window's floor: every sequence below it arrived.
type httpSession struct {
	// writerMu serializes whole POST bodies for the session. Without it,
	// two concurrent uploaders interleave their segment streams against
	// the shared cursor, and a stale retry carrying RestartHeader swaps
	// the reassembler out from under an in-flight upload mid-body. One
	// writer proceeds, the others wait their turn and then resume from
	// the cursor the winner advanced.
	writerMu sync.Mutex

	mu sync.Mutex
	rx rxSession
}

// HTTPUploadServer receives video uploads, decrypts marked segments and
// reassembles the clip, playing the commercial-upload-endpoint role of
// Section 6.4. Sessions are keyed by SessionHeader, so one server
// instance carries many concurrent tenants; requests without it use the
// default session "".
type HTTPUploadServer struct {
	cfg    codec.Config
	cipher *vcrypt.Cipher

	// HeaderOnlyBytes mirrors the sender's Policy.HeaderOnlyBytes
	// (0 = whole payload is encrypted). Set before serving.
	HeaderOnlyBytes int

	smu      sync.Mutex
	sessions map[string]*httpSession

	// Tap, when non-nil, sees every segment exactly as it crossed the
	// wire (still encrypted), emulating a radio capture of the TCP
	// stream.
	Tap func(seq uint64, encrypted bool, payload []byte)
}

// NewHTTPUploadServer builds the handler state.
func NewHTTPUploadServer(cfg codec.Config, alg vcrypt.Algorithm, key []byte) (*HTTPUploadServer, error) {
	cipher, err := vcrypt.NewCipher(alg, key)
	if err != nil {
		return nil, err
	}
	s := &HTTPUploadServer{cfg: cfg, cipher: cipher, sessions: make(map[string]*httpSession)}
	if _, err := s.session(""); err != nil {
		return nil, err
	}
	return s, nil
}

// session returns the state for the given session ID, creating it on
// first use.
func (s *HTTPUploadServer) session(id string) (*httpSession, error) {
	s.smu.Lock()
	defer s.smu.Unlock()
	if sess := s.sessions[id]; sess != nil {
		return sess, nil
	}
	sess := &httpSession{}
	if err := sess.rx.reset(s.cfg, 0); err != nil {
		return nil, err
	}
	s.sessions[id] = sess
	return sess, nil
}

// ServeHTTP implements http.Handler: POST uploads marker-tagged
// segments; GET/HEAD report the resume point in NextSeqHeader so a
// client whose connection died mid-upload continues from the first
// unacknowledged segment.
func (s *HTTPUploadServer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	sid := req.Header.Get(SessionHeader)
	switch req.Method {
	case http.MethodGet, http.MethodHead:
		next := s.SessionNextSeq(sid)
		w.Header().Set(NextSeqHeader, strconv.FormatUint(next, 10))
		w.WriteHeader(http.StatusOK)
		if req.Method == http.MethodGet {
			fmt.Fprintf(w, "next %d\n", next) //lint:allow bitioerr best-effort status body; the header already carried the answer
		}
		return
	case http.MethodPost:
	default:
		http.Error(w, "POST or GET only", http.StatusMethodNotAllowed)
		return
	}
	sess, err := s.session(sid)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// One POST body per session at a time (see httpSession.writerMu):
	// losers of the race block here and then resume cleanly from
	// whatever cursor the winner left behind.
	sess.writerMu.Lock()
	defer sess.writerMu.Unlock()
	if h := req.Header.Get(RestartHeader); h != "" {
		base, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			http.Error(w, "bad restart base", http.StatusBadRequest)
			return
		}
		// Restart: a fresh reassembly from base on. The segment and
		// duplicate counts carry on.
		sess.mu.Lock()
		err = sess.rx.reset(s.cfg, base)
		sess.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	open := opener{cipher: s.cipher, hdrOnly: s.HeaderOnlyBytes}
	br := bufio.NewReader(req.Body)
	count := 0
	// One buffer serves the whole body: decrypt works in place and
	// Reassembler.Add copies what it keeps.
	var buf []byte
	for {
		seq, encrypted, payload, err := readSegmentInto(br, buf) //lint:allow lockheld writerMu exists to serialize whole POST bodies per session; a slow body only stalls that session's own concurrent retries, never another tenant
		if err == io.EOF {
			break
		}
		if err != nil {
			// The link died mid-segment: keep everything already
			// reassembled so the client can resume from NextSeq.
			w.Header().Set(NextSeqHeader, strconv.FormatUint(s.SessionNextSeq(sid), 10))
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		buf = payload
		if s.Tap != nil {
			s.Tap(seq, encrypted, append([]byte(nil), payload...))
		}
		sess.mu.Lock()
		if next := sess.rx.window.Floor(); seq > next {
			sess.mu.Unlock()
			w.Header().Set(NextSeqHeader, strconv.FormatUint(next, 10))
			http.Error(w, fmt.Sprintf("gap: got seq %d, need %d", seq, next), http.StatusConflict)
			return
		}
		// Below the cursor is a duplicate of acknowledged data (a resume
		// overshot): deliver counts and drops it, since re-adding would
		// double-decrypt the payload.
		first, usable := sess.rx.deliver(open, seq, encrypted, payload)
		sess.mu.Unlock()
		mServerSegments.Inc()
		if !first {
			mServerDuplicates.Inc()
		} else if usable {
			count++
		}
	}
	next := s.SessionNextSeq(sid)
	w.Header().Set(NextSeqHeader, strconv.FormatUint(next, 10))
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok %d next %d\n", count, next) //lint:allow bitioerr best-effort status body; the header already carried the answer
}

// NextSeq returns the next sequence number the server needs — everything
// below it arrived contiguously and is acknowledged.
func (s *HTTPUploadServer) NextSeq() uint64 { return s.SessionNextSeq("") }

// DuplicateSegments returns how many already-acknowledged segments were
// received again (zero when resumes never overshoot).
func (s *HTTPUploadServer) DuplicateSegments() int { return s.SessionDuplicates("") }

// Frames returns a snapshot of the reassembled clip; segments that
// arrive later do not change it.
func (s *HTTPUploadServer) Frames(total int) []*codec.EncodedFrame { return s.SessionFrames("", total) }

// Segments returns how many segments arrived.
func (s *HTTPUploadServer) Segments() int { return s.SessionSegments("") }

// readSession returns f of the given session's receive state, read
// under the session's lock, or the zero value for a named session that
// does not exist yet.
func readSession[T any](s *HTTPUploadServer, id string, f func(rx *rxSession) T) (v T) {
	s.smu.Lock()
	sess := s.sessions[id]
	s.smu.Unlock()
	if sess != nil {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		v = f(&sess.rx)
	}
	return v
}

// SessionNextSeq returns the resume point of the given session (0 for a
// named session that has not uploaded yet). The empty ID is the default
// session.
func (s *HTTPUploadServer) SessionNextSeq(id string) uint64 {
	return readSession(s, id, func(rx *rxSession) uint64 { return rx.window.Floor() })
}

// SessionSegments returns how many segments the given session received.
func (s *HTTPUploadServer) SessionSegments(id string) int {
	return readSession(s, id, func(rx *rxSession) int { return rx.received + rx.dups })
}

// SessionDuplicates returns how many already-acknowledged segments the
// given session received again.
func (s *HTTPUploadServer) SessionDuplicates(id string) int {
	return readSession(s, id, func(rx *rxSession) int { return rx.dups })
}

// SessionFrames returns a snapshot of the given session's reassembled
// clip (nil for a named session that never uploaded); segments that
// arrive later do not change it.
func (s *HTTPUploadServer) SessionFrames(id string, total int) []*codec.EncodedFrame {
	return readSession(s, id, func(rx *rxSession) []*codec.EncodedFrame { return rx.asm.Frames(total) })
}

// Sessions returns the IDs of the named sessions seen so far (the
// default session is not listed).
func (s *HTTPUploadServer) Sessions() []string {
	s.smu.Lock()
	defer s.smu.Unlock()
	ids := make([]string, 0, len(s.sessions)-1)
	for id := range s.sessions {
		if id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// HTTPUploadReport summarises a live HTTP upload.
type HTTPUploadReport struct {
	Segments  int
	Encrypted int
	Bytes     int
	Elapsed   time.Duration
}

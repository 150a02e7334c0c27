package transport

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/vcrypt"
)

// The upload body: buildSegments packs a clip's segments into 64 KiB
// store chunks, and each attempt's request body reads them back to back
// (segmentBody). These tests pin the store's shape and allocation count,
// the body's byte stream and counters, and a resume across a connection
// cut mid-body.

// wireOf concatenates the segments' wire bytes: the exact request body
// of an attempt that sends them.
func wireOf(segs []wireSegment) []byte {
	var b []byte
	for _, seg := range segs {
		b = append(b, seg.wire...)
	}
	return b
}

// wholeSegments returns how many segments lie entirely within the first
// n bytes of the body, their bytes and how many of them are encrypted.
func wholeSegments(segs []wireSegment, n int) (count, size, enc int) {
	for _, seg := range segs {
		if size+len(seg.wire) > n {
			break
		}
		count++
		size += len(seg.wire)
		if seg.encrypted {
			enc++
		}
	}
	return count, size, enc
}

// TestBuildSegmentsAllocs pins the allocations of one upload's segment
// store, built and then released as ResumableHTTPUpload does, for a clip
// of the upload_http workload's shape at the measured count. The store
// chunks and the segment list come from the free list the previous
// release filled; what is left is mostly the cipher's key set-up, none
// per segment. It also checks that no segment can grow into its
// neighbour.
func TestBuildSegmentsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts are meaningless")
	}
	if testing.Short() {
		t.Skip("encodes 300 CIF frames")
	}
	s := cifUpload(t)
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		if cap(seg.wire) != len(seg.wire) {
			t.Fatalf("segment %d: cap %d, len %d", i, cap(seg.wire), len(seg.wire))
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		var st segmentStore
		if _, err := st.build(s, 0); err != nil {
			t.Fatal(err)
		}
		st.release()
	})
	t.Logf("%.0f allocations for %d segments", allocs, len(segs))
	const limit = 24
	if allocs > limit {
		t.Fatalf("segment store: %.0f allocations for %d segments, want at most %d", allocs, len(segs), limit)
	}
}

// TestSegmentBodyRead reads one body through buffers of several sizes:
// the bytes are the segments' wire bytes back to back, and after every
// Read the counters cover exactly the segments read in full.
func TestSegmentBodyRead(t *testing.T) {
	s := goldenSession(t, vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES128CTR})
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := wireOf(segs)
	for _, size := range []int{1, 7, 600, 32 << 10, len(want) + 1} {
		body := newSegmentBody(segs, nil)
		var got []byte
		buf := make([]byte, size)
		for {
			n, err := body.Read(buf)
			got = append(got, buf[:n]...)
			count, whole, enc := wholeSegments(segs, len(got))
			if body.sent != count || body.sentBytes != whole || body.sentEnc != enc {
				t.Fatalf("buffer %d: after %d bytes the body counts %d segments (%d bytes, %d encrypted), want %d (%d, %d)",
					size, len(got), body.sent, body.sentBytes, body.sentEnc, count, whole, enc)
			}
			if err == io.EOF {
				break
			}
			if err != nil || n == 0 {
				t.Fatalf("buffer %d: Read = %d, %v", size, n, err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("buffer %d: body bytes differ from the segments' wire bytes", size)
		}
	}
}

// TestSegmentBodyPacedReads checks the paced body's granularity: each
// Read waits for and returns exactly one segment, however large the
// buffer.
func TestSegmentBodyPacedReads(t *testing.T) {
	s := goldenSession(t, vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES128CTR})
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	pacer, err := netem.NewPacer(1e9)
	if err != nil {
		t.Fatal(err)
	}
	body := newSegmentBody(segs, pacer)
	buf := make([]byte, 32<<10)
	for i, seg := range segs {
		n, err := body.Read(buf)
		if err != nil || !bytes.Equal(buf[:n], seg.wire) {
			t.Fatalf("paced Read %d = %d bytes, %v; want segment %d (%d bytes)", i, n, err, i, len(seg.wire))
		}
	}
	if n, err := body.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("Read past the last segment = %d, %v", n, err)
	}
}

// cutTransport stands in for an HTTP transport whose connection dies
// mid-body: it reads before bytes of the body, then either fails the
// round trip at once or answers 503 and goes on reading after bytes
// more before it closes the body, as net/http may do after RoundTrip
// has returned.
type cutTransport struct {
	before, after int
	answer        bool
}

func (c cutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	io.CopyN(io.Discard, req.Body, int64(c.before)) //nolint:errcheck // a short body just ends the copy early
	if !c.answer {
		req.Body.Close() //nolint:errcheck // the body's Close cannot fail
		return nil, errors.New("connection reset mid-body")
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		io.CopyN(io.Discard, req.Body, int64(c.after)) //nolint:errcheck // a short body just ends the copy early
		req.Body.Close()                               //nolint:errcheck // the body's Close cannot fail
	}()
	return &http.Response{
		StatusCode: http.StatusServiceUnavailable,
		Status:     "503 Service Unavailable",
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader("")),
		Request:    req,
	}, nil
}

// TestPostSegmentsCountsWhatTransportRead cuts an attempt after a byte
// count that is not a segment boundary: the reported counts are the
// segments the transport read in full, including those it read after
// RoundTrip returned, and never the partly read one.
func TestPostSegmentsCountsWhatTransportRead(t *testing.T) {
	s := goldenSession(t, vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES128CTR})
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := len(wireOf(segs))
	for _, c := range []cutTransport{
		{before: total / 3},
		{before: total / 3, after: total / 4, answer: true},
		{before: total / 2, after: total, answer: true},
	} {
		client := &http.Client{Transport: c}
		sent, sentBytes, sentEnc, _, err := postSegments(client, "http://upload.invalid/", "", segs, "", nil, 5*time.Second)
		if err == nil {
			t.Fatalf("%+v: a cut attempt reported success", c)
		}
		count, size, enc := wholeSegments(segs, min(c.before+c.after, total))
		if sent != count || sentBytes != size || sentEnc != enc {
			t.Fatalf("%+v: counted %d segments (%d bytes, %d encrypted), the transport read %d (%d bytes, %d encrypted) in full",
				c, sent, sentBytes, sentEnc, count, size, enc)
		}
	}
}

// openBodyTransport reads part of the body, then gives up when the
// request's context ends without ever closing the body, breaking the
// http.RoundTripper contract.
type openBodyTransport struct{ read int }

func (o openBodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	io.CopyN(io.Discard, req.Body, int64(o.read)) //nolint:errcheck // a short body just ends the copy early
	<-req.Context().Done()
	return nil, req.Context().Err()
}

// TestPostSegmentsBodyNeverClosed checks that an attempt whose transport
// never closes the body ends soon after its timeout, with an error and
// no segments counted, instead of waiting for the Close forever.
func TestPostSegmentsBodyNeverClosed(t *testing.T) {
	s := goldenSession(t, vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES128CTR})
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: openBodyTransport{read: len(wireOf(segs)) / 2}}
	const timeout = 50 * time.Millisecond
	start := time.Now()
	sent, sentBytes, sentEnc, _, err := postSegments(client, "http://upload.invalid/", "", segs, "", nil, timeout)
	if err == nil {
		t.Fatal("an attempt whose body was never closed reported success")
	}
	if sent != 0 || sentBytes != 0 || sentEnc != 0 {
		t.Fatalf("counted %d segments (%d bytes, %d encrypted) from a body still in use", sent, sentBytes, sentEnc)
	}
	if took := time.Since(start); took > timeout+bodyCloseGrace+2*time.Second {
		t.Fatalf("attempt took %v, want about %v", took, timeout+bodyCloseGrace)
	}
}

// TestResumableUploadCutMidBody severs the connection halfway through
// the first attempt's body, inside a segment. The retry must resume at
// the server's X-Thrifty-Next-Seq, the server must end up with every
// segment exactly once and byte-identical, and the reported counts must
// lie between what the server parsed and that plus what was in flight
// when the link died.
func TestResumableUploadCutMidBody(t *testing.T) {
	s := uploadSession(t, 176, 144, 60, vcrypt.Policy{Mode: vcrypt.ModeIPlusFracP, FracP: 0.3, Alg: vcrypt.AES128CTR})
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(segs)
	total := len(wireOf(segs))
	srv, err := NewHTTPUploadServer(s.Config, s.Policy.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	// starts[k] is the server's cursor when POST k began; tapped[k] the
	// segments it parsed, framed again as they crossed the wire.
	var (
		mu      sync.Mutex
		starts  []uint64
		tapped  [][][]byte
		current int
	)
	srv.Tap = func(seq uint64, encrypted bool, payload []byte) {
		var seg bytes.Buffer
		WriteSegment(&seg, seq, encrypted, payload) //nolint:errcheck // bytes.Buffer writes cannot fail
		mu.Lock()
		tapped[current] = append(tapped[current], seg.Bytes())
		mu.Unlock()
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			// The blackout outlasts the cut body's handler, so the
			// cursor read here is the one this body resumes from.
			mu.Lock()
			current = len(starts)
			starts = append(starts, srv.NextSeq())
			tapped = append(tapped, nil)
			mu.Unlock()
		}
		srv.ServeHTTP(w, r)
	}))
	defer hs.Close()
	proxy, err := netem.NewFlakyProxy(hs.Listener.Addr().String(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetBlackout(100 * time.Millisecond)
	proxy.SetCutAfter(int64(total/2 + segmentHeaderSize + 1))

	rp := RetryPolicy{MaxAttempts: 10, BaseBackoff: 25 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, AttemptTimeout: 5 * time.Second, Seed: 3}
	rep, err := ResumableHTTPUpload(s, "http://"+proxy.Addr(), nil, rp, nil)
	if err != nil {
		t.Fatalf("upload did not survive the cut: %v (report %+v)", err, rep)
	}
	if _, severed := proxy.Stats(); severed == 0 || rep.Resumes == 0 {
		t.Fatalf("no cut and resume happened: %d severed, report %+v", severed, rep)
	}
	mu.Lock()
	defer mu.Unlock()
	var got [][]byte
	inFlight := 0
	for k, start := range starts {
		if k > 0 {
			// Attempt k-1 lost at most what lay past the point attempt k
			// resumed from.
			inFlight += n - int(start)
			if len(tapped[k]) > 0 && !bytes.Equal(tapped[k][0], segs[start].wire) {
				t.Fatalf("POST %d resumed with a segment other than %d, the server's resume point", k, start)
			}
		}
		got = append(got, tapped[k]...)
	}
	if len(got) != n || srv.Segments() != n || srv.DuplicateSegments() != 0 {
		t.Fatalf("server parsed %d segments (%d duplicates) over %d POSTs, want each of %d once", srv.Segments(), srv.DuplicateSegments(), len(starts), n)
	}
	for i, seg := range segs {
		if !bytes.Equal(got[i], seg.wire) {
			t.Fatalf("segment %d differs from the store on the wire", i)
		}
	}
	t.Logf("%d segments, %d POSTs resuming at %v; report counts %d", n, len(starts), starts, rep.Segments)
	if rep.Segments < srv.Segments() || rep.Segments > srv.Segments()+inFlight {
		t.Fatalf("report counts %d segments; the server parsed %d and at most %d more were in flight", rep.Segments, srv.Segments(), inFlight)
	}
}

package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/vcrypt"
)

// Store recycling: ResumableHTTPUpload gives its store chunks to the
// free list when it returns, unless a transport may still read them.
// These tests pin the free list's bound, check that a body left open
// keeps its store out of the list, and run concurrent uploads over the
// shared list under -race, byte-checking what every server receives.

// drainFreeChunks empties the free list, its segment list included, and
// returns how many chunks it held.
func drainFreeChunks() int {
	freeChunks.mu.Lock()
	defer freeChunks.mu.Unlock()
	n := len(freeChunks.chunks)
	freeChunks.chunks, freeChunks.segs = nil, nil
	return n
}

// freeChunkCount returns the free list's length.
func freeChunkCount() int {
	freeChunks.mu.Lock()
	defer freeChunks.mu.Unlock()
	return len(freeChunks.chunks)
}

// freeSegsCap returns the capacity of the free list's segment list.
func freeSegsCap() int {
	freeChunks.mu.Lock()
	defer freeChunks.mu.Unlock()
	return cap(freeChunks.segs)
}

// TestSegmentListRecycled checks that release hands the store's segment
// list to the free list emptied and cleared, so it pins no chunk, and
// that the next build appends to that same array.
func TestSegmentListRecycled(t *testing.T) {
	s := goldenSession(t, uploadPolicy)
	drainFreeChunks()
	var st segmentStore
	segs, err := st.build(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := &segs[0]
	st.release()
	freeChunks.mu.Lock()
	held := freeChunks.segs
	freeChunks.mu.Unlock()
	if len(held) != 0 || cap(held) < len(segs) {
		t.Fatalf("free segment list has len %d, cap %d; want 0 and at least %d", len(held), cap(held), len(segs))
	}
	for i, seg := range held[:len(segs)] {
		if seg.wire != nil {
			t.Fatalf("recycled list entry %d still points into a chunk", i)
		}
	}
	again, err := st.build(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != first || freeSegsCap() != 0 {
		t.Fatal("the next build did not take the recycled segment list")
	}
	ref, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireOf(again), wireOf(ref)) {
		t.Fatal("a build into the recycled list made different segments")
	}
}

// TestFreeChunksBound pins the free list's bound and checks that release
// keeps only empty chunks of exactly storeChunk bytes, never more than
// the bound.
func TestFreeChunksBound(t *testing.T) {
	if maxFreeChunks != 32 {
		t.Fatalf("maxFreeChunks = %d, want 32 (2 MiB of 64 KiB chunks)", maxFreeChunks)
	}
	drainFreeChunks()
	var st segmentStore
	for i := 0; i < maxFreeChunks+5; i++ {
		c := st.newChunk(100)
		st.chunks[len(st.chunks)-1] = append(c, 1, 2, 3)
	}
	st.newChunk(storeChunk + 1) // a segment larger than a chunk
	st.release()
	freeChunks.mu.Lock()
	defer freeChunks.mu.Unlock()
	if len(freeChunks.chunks) != maxFreeChunks {
		t.Fatalf("free list holds %d chunks, want the bound %d", len(freeChunks.chunks), maxFreeChunks)
	}
	for i, c := range freeChunks.chunks {
		if len(c) != 0 || cap(c) != storeChunk {
			t.Fatalf("free chunk %d: len %d, cap %d", i, len(c), cap(c))
		}
	}
	if st.chunks != nil {
		t.Fatal("release left the store holding its chunks")
	}
}

// failingTransport fails every request. A POST first reads part of the
// body; then it either closes the body and fails at once, or, keeping
// the body, breaks the http.RoundTripper contract: it gives up when the
// request's context ends without ever closing the body. Resume queries
// fail at once.
type failingTransport struct {
	read     int
	keepBody bool
}

func (f failingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		return nil, errors.New("link down")
	}
	io.CopyN(io.Discard, req.Body, int64(f.read)) //nolint:errcheck // a short body just ends the copy early
	if !f.keepBody {
		req.Body.Close() //nolint:errcheck // the body's Close cannot fail
		return nil, errors.New("connection reset mid-body")
	}
	<-req.Context().Done()
	return nil, req.Context().Err()
}

// TestStoreNotRecycledWhileBodyOpen runs an upload whose transport never
// closes the body: the upload fails with errBodyOpen and none of its
// store's chunks reach the free list, where the next upload would
// overwrite bytes the transport may still read. The same upload over a
// transport that closes the body releases its store.
func TestStoreNotRecycledWhileBodyOpen(t *testing.T) {
	s := goldenSession(t, vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES128CTR})
	rp := RetryPolicy{MaxAttempts: 1, AttemptTimeout: 50 * time.Millisecond, Seed: 1}
	drainFreeChunks()
	client := &http.Client{Transport: failingTransport{read: 1000, keepBody: true}}
	if _, err := resumableUpload(client, s, "http://upload.invalid/", nil, rp, nil); !errors.Is(err, errBodyOpen) {
		t.Fatalf("upload over a transport that keeps the body: %v, want errBodyOpen", err)
	}
	if n := freeChunkCount(); n != 0 {
		t.Fatalf("%d chunks of a store still held by an open body reached the free list", n)
	}
	if freeSegsCap() != 0 {
		t.Fatal("the segment list of a store still held by an open body reached the free list")
	}
	client = &http.Client{Transport: failingTransport{read: 1000}}
	if _, err := resumableUpload(client, s, "http://upload.invalid/", nil, rp, nil); err == nil || errors.Is(err, errBodyOpen) {
		t.Fatalf("upload over a cut transport: %v, want a cut error", err)
	}
	if n := freeChunkCount(); n == 0 || freeSegsCap() == 0 {
		t.Fatal("an upload whose bodies were all closed did not release its store")
	}
}

// TestSegmentBodyReadAfterClose checks that a closed body reads nothing,
// so a transport that reads after Close cannot reach recycled chunks.
func TestSegmentBodyReadAfterClose(t *testing.T) {
	segs, err := buildSegments(goldenSession(t, uploadPolicy), 0)
	if err != nil {
		t.Fatal(err)
	}
	body := newSegmentBody(segs, nil)
	buf := make([]byte, 100)
	if n, err := body.Read(buf); n != len(buf) || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	body.Close() //nolint:errcheck // the body's Close cannot fail
	if n, err := body.Read(buf); n != 0 || !errors.Is(err, errBodyClosed) {
		t.Fatalf("Read after Close = %d, %v; want 0, errBodyClosed", n, err)
	}
}

// TestConcurrentUploadsShareFreeList runs uploads of four different
// sessions concurrently, several rounds each, so store chunks pass from
// one upload to the next through the free list. Every server must
// receive exactly the segments the reference construction builds, and
// reassemble exactly the session's frames. Under -race this also checks
// that a chunk is handed on only after the body that read it is done.
func TestConcurrentUploadsShareFreeList(t *testing.T) {
	policies := []vcrypt.Policy{
		{Mode: vcrypt.ModeAll, Alg: vcrypt.AES128CTR},
		{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256CTR},
		{Mode: vcrypt.ModeIPlusFracP, FracP: 0.5, Alg: vcrypt.AES128},
		{Mode: vcrypt.ModeAll, Alg: vcrypt.AES256CTR},
	}
	const rounds = 6
	drainFreeChunks()
	sessions := make([]Session, len(policies))
	wants := make([][][]byte, len(policies))
	for w, pol := range policies {
		sessions[w] = goldenSession(t, pol)
		sessions[w].Key[0] = byte(w) // distinct ciphertext per session
		wants[w] = legacySegments(t, sessions[w])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(policies))
	for w := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds && errs[w] == nil; r++ {
				errs[w] = uploadChecked(sessions[w], wants[w])
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", w, err)
		}
	}
	if freeChunkCount() == 0 {
		t.Fatal("no store chunk reached the free list")
	}
}

// uploadChecked uploads s to a fresh server and compares the segments
// its wire tap saw with want and its reassembled frames with s.Encoded.
func uploadChecked(s Session, want [][]byte) error {
	srv, err := NewHTTPUploadServer(s.Config, s.Policy.Alg, s.Key)
	if err != nil {
		return err
	}
	var (
		mu  sync.Mutex
		got [][]byte
	)
	srv.Tap = func(seq uint64, encrypted bool, payload []byte) {
		var seg bytes.Buffer
		WriteSegment(&seg, seq, encrypted, payload) //nolint:errcheck // bytes.Buffer writes cannot fail
		mu.Lock()
		got = append(got, seg.Bytes())
		mu.Unlock()
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	if _, err := uploadOnce(s, hs.URL, nil); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		return fmt.Errorf("server tapped %d segments, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("segment %d differs on the wire", i)
		}
	}
	frames := srv.Frames(len(s.Encoded))
	for _, ef := range s.Encoded {
		got := frames[ef.Number]
		if got == nil || got.Type != ef.Type || len(got.MBData) != len(ef.MBData) {
			return fmt.Errorf("frame %d missing at the server", ef.Number)
		}
		for m, mb := range got.MBData {
			if !bytes.Equal(mb, ef.MBData[m]) {
				return fmt.Errorf("frame %d macroblock %d differs at the server", ef.Number, m)
			}
		}
	}
	return nil
}

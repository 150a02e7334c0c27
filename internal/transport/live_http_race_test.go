package transport

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// Two concurrent uploaders plus a straggling restart retry against one
// session. Before per-session serialization, the three bodies
// interleaved against the shared next/asm cursor and the restart swapped
// the reassembler out from under an in-flight upload; run under -race
// this caught both the data race and the corruption. Now one body runs
// at a time, so whatever the interleaving, the final state is exactly
// one intact clip.
func TestHTTPUploadConcurrentWritersAndStragglingRestart(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionMedium, pol)
	srv, err := NewHTTPUploadServer(s.Config, pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(segs)

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = uploadOnce(s, hs.URL, nil)
		}(i)
	}
	// The straggler: a stale retry carrying RestartHeader for the epoch
	// base, racing the live uploads with a full body of its own.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{}
		_, _, _, next, perr := postSegments(client, hs.URL, "", segs, "0", nil, 10*time.Second)
		if perr == nil && next != uint64(n) {
			perr = errTestRestartShort{got: next, want: uint64(n)}
		}
		errs[2] = perr
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}

	if got := srv.NextSeq(); got != uint64(n) {
		t.Fatalf("next %d after the dust settled, want %d", got, n)
	}
	if got := srv.Segments(); got != 3*n {
		t.Fatalf("server counted %d segments, want %d", got, 3*n)
	}
	// The restart body is fresh after its reset; of the other two, the
	// ones running after a completed body are pure duplicates. Any
	// serialization order therefore yields n or 2n duplicates.
	if d := srv.DuplicateSegments(); d != n && d != 2*n {
		t.Fatalf("server counted %d duplicates, want %d or %d", d, n, 2*n)
	}
	ref, err := codec.DecodeSequence(s.Encoded, s.Config)
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(decodeServer(t, srv, s.Config, len(s.Encoded)), ref) {
		t.Fatal("reassembled clip differs from the encoded reference")
	}
}

type errTestRestartShort struct{ got, want uint64 }

func (e errTestRestartShort) Error() string {
	return "restart body acknowledged short"
}

// Named sessions are isolated: concurrent tenants never see each
// other's cursor, duplicates or frames, and the default session stays
// untouched.
func TestHTTPUploadNamedSessionsIsolated(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionMedium, pol)
	srv, err := NewHTTPUploadServer(s.Config, pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(segs))

	ids := []string{"tenant-a", "tenant-b", "tenant-c"}
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			si := s
			si.SessionID = id
			_, errs[i] = uploadOnce(si, hs.URL, nil)
		}(i, id)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %s: %v", ids[i], err)
		}
	}

	ref, err := codec.DecodeSequence(s.Encoded, s.Config)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if got := srv.SessionNextSeq(id); got != n {
			t.Fatalf("session %s next %d, want %d", id, got, n)
		}
		if d := srv.SessionDuplicates(id); d != 0 {
			t.Fatalf("session %s absorbed %d duplicates from its neighbours", id, d)
		}
		if got := srv.SessionSegments(id); got != int(n) {
			t.Fatalf("session %s counted %d segments, want %d", id, got, n)
		}
		frames, err := codec.DecodeSequence(srv.SessionFrames(id, len(s.Encoded)), s.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !framesEqual(frames, ref) {
			t.Fatalf("session %s clip differs from the reference", id)
		}
	}
	if got := srv.NextSeq(); got != 0 {
		t.Fatalf("default session advanced to %d on named traffic", got)
	}
	if got := len(srv.Sessions()); got != len(ids) {
		t.Fatalf("server lists %d sessions, want %d", got, len(ids))
	}
}

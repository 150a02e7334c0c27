package transport

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// A resume storm across tenants: several concurrent resumable uploads,
// each under its own session ID, share one flaky uplink that severs a
// connection mid-transfer and then blacks the link out, killing every
// in-flight body. Every tenant must still land its complete clip in its
// own session, the obs counters must match the uploaders' own reports,
// and nothing may leak once the dust settles. Run under -race this also
// exercises the per-session serialization against real retry traffic.
func TestChaosMultiSessionResumeStorm(t *testing.T) {
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
	var totalBytes int
	for _, seg := range segs {
		totalBytes += segmentHeaderSize + len(seg.payload())
	}
	proxy, err := netem.NewFlakyProxy(hs.Listener.Addr().String(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// One clip's worth of upstream bytes into the storm, some tenant's
	// connection dies and the blackout kills everyone else mid-body.
	proxy.SetBlackout(100 * time.Millisecond)
	proxy.SetCutAfter(int64(totalBytes))

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	attempts0 := mUploadAttempts.Value()
	resumes0 := mUploadResumes.Value()
	srvSegs0 := mServerSegments.Value()
	srvDups0 := mServerDuplicates.Value()
	baseGoroutines := runtime.NumGoroutine()

	const tenants = 8
	reps := make([]ResumeReport, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			si := s
			si.SessionID = fmt.Sprintf("tenant-%d", i)
			rp := RetryPolicy{
				MaxAttempts:    12,
				BaseBackoff:    20 * time.Millisecond,
				MaxBackoff:     120 * time.Millisecond,
				AttemptTimeout: 5 * time.Second,
				Seed:           uint64(100 + i),
			}
			reps[i], errs[i] = ResumableHTTPUpload(si, "http://"+proxy.Addr(), nil, rp, nil)
		}(i)
	}
	wg.Wait()

	var attempts, resumes int
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("tenant %d did not survive the storm: %v (report %+v)", i, errs[i], reps[i])
		}
		attempts += reps[i].Attempts
		resumes += reps[i].Resumes
	}
	if attempts <= tenants {
		t.Fatalf("the cut severed nobody: %d attempts across %d tenants", attempts, tenants)
	}
	if resumes == 0 {
		t.Fatal("no tenant resumed from a partial upload")
	}

	// Every tenant's clip landed whole, in its own session.
	ref, err := codec.DecodeSequence(s.Encoded, s.Config)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		if got := srv.SessionNextSeq(id); got != n {
			t.Fatalf("session %s next %d, want %d", id, got, n)
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
		t.Fatalf("default session advanced to %d on tenant traffic", got)
	}
	if got := len(srv.Sessions()); got != tenants {
		t.Fatalf("server lists %d sessions, want %d", got, tenants)
	}

	// Exported metrics agree with the uploaders' reports and with the
	// per-session bookkeeping.
	if a := mUploadAttempts.Value() - attempts0; a != int64(attempts) {
		t.Fatalf("obs counted %d attempts, reports sum to %d", a, attempts)
	}
	if r := mUploadResumes.Value() - resumes0; r != int64(resumes) {
		t.Fatalf("obs counted %d resumes, reports sum to %d", r, resumes)
	}
	var sumSegs, sumDups int
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		sumSegs += srv.SessionSegments(id)
		sumDups += srv.SessionDuplicates(id)
	}
	if got := mServerSegments.Value() - srvSegs0; got != int64(sumSegs) {
		t.Fatalf("obs counted %d server segments, sessions sum to %d", got, sumSegs)
	}
	if got := mServerDuplicates.Value() - srvDups0; got != int64(sumDups) {
		t.Fatalf("obs counted %d server duplicates, sessions sum to %d", got, sumDups)
	}

	// No goroutine may outlive the storm once idle keep-alive
	// connections (and with them the proxy's relay workers) are torn
	// down.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	waitFor(t, 3*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines+3
	}, "storm goroutines to exit")
}

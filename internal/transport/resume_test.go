package transport

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/evalvid"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

func TestBackoffDeterministicAndCapped(t *testing.T) {
	rp := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 160 * time.Millisecond, Seed: 7}
	a, b := NewBackoff(rp), NewBackoff(rp)
	for i := 0; i < 12; i++ {
		ga, gb := a.Next(), b.Next()
		if ga != gb {
			t.Fatalf("schedules diverged at retry %d: %v vs %v", i, ga, gb)
		}
		if max := time.Duration(float64(160*time.Millisecond) * 1.2); ga > max {
			t.Fatalf("retry %d gap %v above jittered cap %v", i, ga, max)
		}
		if ga <= 0 {
			t.Fatalf("retry %d gap %v not positive", i, ga)
		}
	}
	// A different seed jitters differently.
	c := NewBackoff(RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 160 * time.Millisecond, Seed: 8})
	same := true
	a2 := NewBackoff(rp)
	for i := 0; i < 8; i++ {
		if a2.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

// TestBackoffExplicitZeroJitter pins the Jitter(0) semantics: an
// explicit zero fraction disables jitter entirely (it must not be
// silently replaced by the 0.2 default), so the gap sequence is exactly
// the nominal capped-exponential one.
func TestBackoffExplicitZeroJitter(t *testing.T) {
	rp := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, JitterFrac: Jitter(0), Seed: 99}
	b := NewBackoff(rp)
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("gap %d = %v, want exactly %v (explicit zero jitter must stay zero)", i, got, w)
		}
	}
	// The caller's value must not be rewritten by withDefaults.
	if *rp.JitterFrac != 0 {
		t.Fatalf("caller's JitterFrac mutated to %g", *rp.JitterFrac)
	}
	// nil still selects the default: the first gap is jittered away from
	// the nominal base for almost every seed (7 is one of them).
	d := NewBackoff(RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Seed: 7})
	if got := d.Next(); got == 10*time.Millisecond {
		t.Fatalf("nil JitterFrac produced an unjittered gap %v", got)
	}
}

func TestBackoffResetRestartsGrowth(t *testing.T) {
	rp := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second, JitterFrac: Jitter(0), Seed: 1}
	b := NewBackoff(rp)
	b.Next()
	second := b.Next()
	if second != 20*time.Millisecond {
		t.Fatalf("second gap %v, want 20ms", second)
	}
	b.Reset()
	if got := b.Next(); got != 10*time.Millisecond {
		t.Fatalf("gap after reset %v, want base 10ms", got)
	}
}

func TestServerReportsResumePoint(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionLow, pol)
	srv, err := NewHTTPUploadServer(s.Config, pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	client := &http.Client{}
	next, err := queryNextSeq(client, hs.URL, "", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if next != 0 {
		t.Fatalf("fresh server next %d", next)
	}

	segs, err := buildSegments(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	half := len(segs) / 2
	var body bytes.Buffer
	for _, seg := range segs[:half] {
		if err := WriteSegment(&body, seg.seq, seg.encrypted, seg.payload()); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(hs.URL, "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	next, err = queryNextSeq(client, hs.URL, "", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if next != uint64(half) {
		t.Fatalf("after %d segments server reports next %d", half, next)
	}
	if srv.NextSeq() != uint64(half) {
		t.Fatalf("NextSeq %d", srv.NextSeq())
	}
}

// decodeServer decodes the server's reassembled clip.
func decodeServer(t *testing.T, srv *HTTPUploadServer, cfg codec.Config, total int) []*video.Frame {
	t.Helper()
	frames, err := codec.DecodeSequence(srv.Frames(total), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func framesEqual(a, b []*video.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Y, b[i].Y) || !bytes.Equal(a[i].Cb, b[i].Cb) || !bytes.Equal(a[i].Cr, b[i].Cr) {
			return false
		}
	}
	return true
}

// TestChaosOutageMidUploadResumes is the headline chaos test: the link is
// cut mid-upload (after a deterministic byte count) and goes 100%-lossy
// for a window; the client must retry with capped backoff, learn the
// server's highest contiguous seq, resume without re-sending acknowledged
// segments, and the reassembled clip must decode bit-identically to a
// no-fault transfer.
func TestChaosOutageMidUploadResumes(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIPlusFracP, FracP: 0.2, Alg: vcrypt.AES256}
	s, _ := testSession(t, video.MotionMedium, pol)

	// Reference: the same upload over a clean link.
	cleanSrv, err := NewHTTPUploadServer(s.Config, pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	cleanHS := httptest.NewServer(cleanSrv)
	defer cleanHS.Close()
	if _, err := ResumableHTTPUpload(s, cleanHS.URL, nil, RetryPolicy{Seed: 1}, nil); err != nil {
		t.Fatal(err)
	}
	want := decodeServer(t, cleanSrv, s.Config, len(s.Encoded))

	// Faulty link: sever after roughly half the clip's bytes, then a
	// 100%-loss window.
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
	var totalBytes int
	for _, seg := range segs {
		totalBytes += segmentHeaderSize + len(seg.payload())
	}
	proxy, err := netem.NewFlakyProxy(hs.Listener.Addr().String(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetBlackout(200 * time.Millisecond)
	proxy.SetCutAfter(int64(totalBytes / 2))

	// Cross-check the obs counters against the uploader's own report
	// (snapshots taken after the clean reference upload above).
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	attempts0 := mUploadAttempts.Value()
	resumes0 := mUploadResumes.Value()
	backoff0 := mUploadBackoffSeconds.Value()
	srvDups0 := mServerDuplicates.Value()

	rp := RetryPolicy{
		MaxAttempts:    10,
		BaseBackoff:    25 * time.Millisecond,
		MaxBackoff:     150 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
		Seed:           42,
	}
	rep, err := ResumableHTTPUpload(s, "http://"+proxy.Addr(), nil, rp, nil)
	if err != nil {
		t.Fatalf("upload did not survive the outage: %v (report %+v)", err, rep)
	}
	if a := mUploadAttempts.Value() - attempts0; a != int64(rep.Attempts) {
		t.Fatalf("obs counted %d attempts, report %d", a, rep.Attempts)
	}
	if r := mUploadResumes.Value() - resumes0; r != int64(rep.Resumes) {
		t.Fatalf("obs counted %d resumes, report %d", r, rep.Resumes)
	}
	if b := mUploadBackoffSeconds.Value() - backoff0; b <= 0 || b > rep.BackoffTotal.Seconds()+1e-9 {
		t.Fatalf("obs backoff %.3fs vs report %v", b, rep.BackoffTotal)
	}
	if d := mServerDuplicates.Value() - srvDups0; d != 0 {
		t.Fatalf("obs counted %d server duplicates on a resume-only run", d)
	}
	if rep.Attempts < 2 {
		t.Fatalf("no retry recorded: %+v", rep)
	}
	if rep.Resumes < 1 {
		t.Fatalf("no resume recorded: %+v", rep)
	}
	if rep.BackoffTotal <= 0 {
		t.Fatalf("no backoff recorded: %+v", rep)
	}
	// Resuming from the acknowledged seq must not re-send acknowledged
	// segments...
	if d := srv.DuplicateSegments(); d != 0 {
		t.Fatalf("server saw %d duplicate segments", d)
	}
	// ...so the wire overhead is bounded by one partial replay per cut,
	// far below a full re-send per attempt.
	if rep.Segments >= 2*len(segs) {
		t.Fatalf("wire segments %d vs clip %d: resume re-sent too much", rep.Segments, len(segs))
	}
	got := decodeServer(t, srv, s.Config, len(s.Encoded))
	if !framesEqual(want, got) {
		t.Fatal("chaos-transfer reconstruction differs from no-fault transfer")
	}
	if refused, severed := proxy.Stats(); refused+severed == 0 {
		t.Fatal("proxy injected no faults — test proved nothing")
	}
}

// TestDeadlineExhaustionDowngradesPolicy verifies the graceful-degradation
// hook: a link that stays dark past the deadline must trigger a policy
// downgrade (here I+20%P → I-only) and the transfer must then finish
// instead of failing.
func TestDeadlineExhaustionDowngradesPolicy(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES256}
	s, clip := testSession(t, video.MotionLow, pol)
	srv, err := NewHTTPUploadServer(s.Config, pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	proxy, err := netem.NewFlakyProxy(hs.Listener.Addr().String(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// The very first bytes hit a cut followed by a blackout longer than
	// the transfer deadline, so at least one deadline cycle must expire
	// while the link is dark; each degradation earns a fresh deadline
	// and the ladder (all → I+20%P → I) is deep enough to outlive the
	// blackout.
	proxy.SetBlackout(150 * time.Millisecond)
	proxy.SetCutAfter(64)

	rp := RetryPolicy{
		MaxAttempts:    6,
		BaseBackoff:    30 * time.Millisecond,
		MaxBackoff:     120 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
		Deadline:       120 * time.Millisecond,
		Seed:           7,
	}
	deg := &PolicyDegrader{}
	rep, err := ResumableHTTPUpload(s, "http://"+proxy.Addr(), nil, rp, deg)
	if err != nil {
		t.Fatalf("deadline exhaustion failed the transfer instead of degrading: %v (%+v)", err, rep)
	}
	if rep.Downgrades < 1 {
		t.Fatalf("no downgrade recorded: %+v", rep)
	}
	if rep.FinalPolicy.Mode == vcrypt.ModeAll {
		t.Fatalf("final policy %v did not move down the ladder", rep.FinalPolicy)
	}
	// The receiver still reconstructs the clip (encryption downgrades
	// never hurt the legitimate receiver's quality).
	got := decodeServer(t, srv, s.Config, len(s.Encoded))
	q, err := evalvid.Evaluate(clip, got)
	if err != nil {
		t.Fatal(err)
	}
	if q.PSNR < 30 {
		t.Fatalf("post-downgrade PSNR %.1f", q.PSNR)
	}
}

// TestDegradationReencodeRestarts drives the ladder to its last rung: the
// policy is already at the I-only floor, so the degrader re-encodes the
// clip with coarser quantisers and the upload restarts under a fresh
// sequence epoch.
func TestDegradationReencodeRestarts(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES128}
	s, clip := testSession(t, video.MotionLow, pol)
	srv, err := NewHTTPUploadServer(s.Config, pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	proxy, err := netem.NewFlakyProxy(hs.Listener.Addr().String(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetBlackout(240 * time.Millisecond)
	proxy.SetCutAfter(64)

	// Jitter-free schedule so the test is sleep-dominated rather than
	// wall-clock-sensitive: attempts at ~0/20/80ms all land inside the
	// 240ms blackout (exhausting MaxAttempts and forcing the re-encode
	// restart), and the post-restart schedule stretches to ~360ms, past
	// the blackout's end, so the restarted upload always gets through.
	rp := RetryPolicy{
		MaxAttempts:    3,
		BaseBackoff:    20 * time.Millisecond,
		MaxBackoff:     180 * time.Millisecond,
		Multiplier:     3,
		JitterFrac:     Jitter(0),
		AttemptTimeout: 2 * time.Second,
		Seed:           3,
	}
	deg := &PolicyDegrader{Raw: clip}
	rep, err := ResumableHTTPUpload(s, "http://"+proxy.Addr(), nil, rp, deg)
	if err != nil {
		t.Fatalf("re-encode rung failed the transfer: %v (%+v)", err, rep)
	}
	if rep.Restarts != 1 {
		t.Fatalf("restarts %d, want 1: %+v", rep.Restarts, rep)
	}
	if srv.NextSeq() < 1<<32 {
		t.Fatalf("server never moved to the restart epoch: next %d", srv.NextSeq())
	}
	// The degraded clip still decodes to something watchable.
	frames := srv.Frames(len(clip))
	for i, f := range frames {
		if f == nil {
			t.Fatalf("frame %d missing after restart", i)
		}
	}
	cfgGot := s.Config
	cfgGot.QI *= 1.6
	cfgGot.QP *= 1.6
	got, err := codec.DecodeSequence(frames, cfgGot)
	if err != nil {
		t.Fatal(err)
	}
	q, err := evalvid.Evaluate(clip, got)
	if err != nil {
		t.Fatal(err)
	}
	if q.PSNR < 25 {
		t.Fatalf("re-encoded reconstruction PSNR %.1f too low", q.PSNR)
	}
}

// TestResumableUploadCleanLink sanity-checks the no-fault path: one
// attempt, no resumes, a reconstruction of the source clip's quality.
func TestResumableUploadCleanLink(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES128}
	s, clip := testSession(t, video.MotionLow, pol)
	srv, err := NewHTTPUploadServer(s.Config, pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	rep, err := ResumableHTTPUpload(s, hs.URL, nil, RetryPolicy{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1 || rep.Resumes != 0 || rep.Downgrades != 0 || rep.Restarts != 0 {
		t.Fatalf("clean link report %+v", rep)
	}
	got := decodeServer(t, srv, s.Config, len(s.Encoded))
	q, err := evalvid.Evaluate(clip, got)
	if err != nil {
		t.Fatal(err)
	}
	if q.PSNR < 30 {
		t.Fatalf("PSNR %.1f", q.PSNR)
	}
}

// TestResumableUploadGivesUpWithoutDegrader confirms the failure path is
// still reachable: a permanently dark link with no degrader must error
// after MaxAttempts, not loop forever.
func TestResumableUploadGivesUpWithoutDegrader(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeNone, Alg: vcrypt.AES128}
	s, _ := testSession(t, video.MotionLow, pol)
	s.Encoded = s.Encoded[:2]
	rp := RetryPolicy{
		MaxAttempts:    3,
		BaseBackoff:    5 * time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		AttemptTimeout: 300 * time.Millisecond,
		Seed:           1,
	}
	// Nothing listens on this port.
	_, err := ResumableHTTPUpload(s, "http://127.0.0.1:1", nil, rp, nil)
	if err == nil {
		t.Fatal("upload to a dead address succeeded")
	}
}

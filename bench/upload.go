package main

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/transport"
	"repro/internal/vcrypt"
)

// upload_http: the sender-heavy inline path. Closed loop over one
// keep-alive connection: back-to-back ResumableHTTPUpload calls (the
// CLI's uploader with its default retry policy) of the whole clip, each
// to its own HTTPUploadServer in the server process, chosen by URL path
// and dropped once it has acknowledged every segment. It is the only
// workload where inline encryption (buildSegments) is on the clock, and
// the only TCP one.

const uploadName = "upload_http"

// uploadPolicy encrypts every packet under AES128-CTR: the fastcipher
// verdict of EXPERIMENTS.md is that AES-capable phones should encrypt
// everything.
var uploadPolicy = vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES128CTR}

// sampleEvery is the byte-check sampling period: the server compares one
// upload in sampleEvery against the clip, in line with serving.
const sampleEvery = 16

func runUpload(p params) (*result, error) {
	key := keyFor(p.seed, uploadPolicy.Alg)
	sample := int(p.seed % sampleEvery)
	var c *clip
	h, err := setUp(func() (childSpec, error) {
		var err error
		c, err = makeClip(p, uploadName)
		if err != nil {
			return childSpec{}, err
		}
		return childSpec{Workload: uploadName, Clip: c.path, Policy: uploadPolicy, Key: key, Segments: c.packets(), Sample: sample}, nil
	})
	if err != nil {
		return nil, err
	}
	defer h.stop()
	sess := transport.Session{Config: c.cfg, Encoded: c.frames, FPS: fps, MTU: mtu, Policy: uploadPolicy, Key: key}

	var (
		lat      []float64
		errs     int
		attempts int
		lastErr  error
	)
	window := time.Duration(p.seconds * float64(time.Second))
	if err := h.open(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	for id := 0; time.Since(t0) < window; id++ {
		t := time.Now()
		rep, err := transport.ResumableHTTPUpload(sess, h.server.addrs[0]+"/u/"+strconv.Itoa(id), nil, transport.RetryPolicy{Seed: 1}, nil)
		lat = append(lat, float64(time.Since(t).Nanoseconds())/1e6)
		attempts += rep.Attempts
		if err != nil {
			// The run has failed; an upload that fails at once would
			// otherwise spin the loop for the rest of the window.
			errs++
			lastErr = err
			break
		}
	}
	elapsed := time.Since(t0)
	m, err := h.close(0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", uploadName, err)
	}
	srv := m.server

	r := newResult(uploadName, p.seed)
	uploads := len(lat)
	clipMB := float64(c.payloadBytes()) / 1e6
	r.Attempted = uploads
	r.Failed = uploadFailures(uploads, errs, srv.Acked, srv.SampleBad)
	r.setCommon(m, float64(srv.Acked)*clipMB, srv.Acked*c.packets())
	r.setLatency(lat)
	r.set("upload.mb_per_s", float64(srv.Acked)*clipMB/elapsed.Seconds())
	r.set("transport.http.attempts_per_upload", float64(attempts)/float64(max(uploads, 1)))
	detail := "none"
	if lastErr != nil {
		detail = lastErr.Error()
	}
	r.gate("every upload succeeds", errs == 0, "%d of %d failed; last error: %s", errs, uploads, detail)
	r.gate("every upload acknowledges every segment", srv.Acked == uploads, "%d of %d uploads acknowledged all %d segments", srv.Acked, uploads, c.packets())
	r.gate("sampled uploads byte-identical", srv.Sampled > 0 && srv.SampleBad == 0, "%d of %d sampled uploads differ", srv.SampleBad, srv.Sampled)
	if p.trace {
		rp, err := replayUpload(c, key, replayUploads)
		if err != nil {
			return nil, err
		}
		r.addLayers(c, rp)
	}
	return r, nil
}

// uploadFailures counts the failed uploads: those that returned an error
// or were never fully acknowledged (an upload can be both), plus the
// acknowledged ones whose sampled bytes differ from the clip.
func uploadFailures(uploads, errs, acked, sampleBad int) int {
	return max(errs, uploads-acked) + sampleBad
}

// uploadServer routes /u/<id> to a fresh HTTPUploadServer per upload and
// drops it once the upload is fully acknowledged. One long-lived
// HTTPUploadServer would do, but it never releases a named session, so
// its memory would grow with every upload.
type uploadServer struct {
	cfg    codec.Config
	frames []*codec.EncodedFrame
	spec   childSpec
	ln     net.Listener
	hs     *http.Server
	served chan struct{}

	mu        sync.Mutex
	live      map[string]*transport.HTTPUploadServer
	acked     int
	sampled   int
	sampleBad int
}

func newUploadServer(spec childSpec, cfg codec.Config, frames []*codec.EncodedFrame) (server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	u := &uploadServer{cfg: cfg, frames: frames, spec: spec, ln: ln, served: make(chan struct{}), live: make(map[string]*transport.HTTPUploadServer)}
	u.hs = &http.Server{Handler: u}
	go func() {
		defer close(u.served)
		// Serve only returns ErrServerClosed, once close() runs.
		_ = u.hs.Serve(ln)
	}()
	return u, nil
}

func (u *uploadServer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id := strings.TrimPrefix(req.URL.Path, "/u/")
	u.mu.Lock()
	srv := u.live[id]
	if srv == nil {
		var err error
		if srv, err = transport.NewHTTPUploadServer(u.cfg, u.spec.Policy.Alg, u.spec.Key); err != nil {
			u.mu.Unlock()
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		u.live[id] = srv
	}
	u.mu.Unlock()
	srv.ServeHTTP(w, req)
	if req.Method != http.MethodPost || srv.NextSeq() != uint64(u.spec.Segments) {
		return
	}
	n, err := strconv.Atoi(id)
	sampled := err == nil && (n+u.spec.Sample)%sampleEvery == 0
	bad := sampled && badFrames(srv.Frames(len(u.frames)), u.frames) > 0
	u.mu.Lock()
	delete(u.live, id)
	u.acked++
	if sampled {
		u.sampled++
	}
	if bad {
		u.sampleBad++
	}
	u.mu.Unlock()
}

func (u *uploadServer) addrs() []string { return []string{"http://" + u.ln.Addr().String()} }
func (u *uploadServer) start()          {}
func (u *uploadServer) drain()          {}

func (u *uploadServer) check(res *childResult) {
	u.mu.Lock()
	defer u.mu.Unlock()
	res.Acked, res.Sampled, res.SampleBad = u.acked, u.sampled, u.sampleBad
}

func (u *uploadServer) close() {
	u.hs.Close()
	<-u.served
}

package transport

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

// uploadPolicy is the benchmark's upload_http policy: AES128-CTR on every
// packet.
var uploadPolicy = vcrypt.Policy{Mode: vcrypt.ModeAll, Alg: vcrypt.AES128CTR}

// uploadSession encodes a medium-motion clip of the given shape (GOP 30,
// the default codec configuration) as an upload session at MTU 1400.
func uploadSession(tb testing.TB, w, h, frames int, policy vcrypt.Policy) Session {
	tb.Helper()
	sc := video.DefaultScene(video.MotionMedium, 63)
	sc.W, sc.H, sc.Frames = w, h, frames
	cfg := codec.DefaultConfig(30)
	cfg.Width, cfg.Height = w, h
	encoded, err := codec.EncodeSequence(video.Generate(sc), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	key := make([]byte, policy.Alg.KeySize())
	for i := range key {
		key[i] = byte(i)
	}
	return Session{Config: cfg, Encoded: encoded, FPS: 30, MTU: 1400, Policy: policy, Key: key}
}

var (
	cifOnce    sync.Once
	cifSession Session
)

// cifUpload is the clip shape of the upload_http workload: 300 CIF
// frames (about 0.68 MB in about 1,050 segments), encoded once per test
// binary.
func cifUpload(tb testing.TB) Session {
	cifOnce.Do(func() { cifSession = uploadSession(tb, video.CIFWidth, video.CIFHeight, 300, uploadPolicy) })
	return cifSession
}

// clipBytes is the wire size of the session's segments.
func clipBytes(b *testing.B, s Session) int64 {
	segs, err := buildSegments(s, 0)
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for _, seg := range segs {
		n += int64(len(seg.wire))
	}
	return n
}

// BenchmarkBuildSegments times building one clip's segment store as an
// upload does: packetize, frame and encrypt every packet, then release
// the store to the free list. Bytes/s are wire bytes.
func BenchmarkBuildSegments(b *testing.B) {
	s := cifUpload(b)
	b.SetBytes(clipBytes(b, s))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st segmentStore
		if _, err := st.build(s, 0); err != nil {
			b.Fatal(err)
		}
		st.release()
	}
}

// BenchmarkResumableUpload times whole clean uploads of the clip over
// httptest loopback, each to its own HTTPUploadServer behind one
// keep-alive listener, as the upload_http workload does. The server's
// CPU is on the clock too.
func BenchmarkResumableUpload(b *testing.B) {
	s := cifUpload(b)
	var cur atomic.Pointer[HTTPUploadServer]
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	}))
	defer hs.Close()
	b.SetBytes(clipBytes(b, s))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := NewHTTPUploadServer(s.Config, s.Policy.Alg, s.Key)
		if err != nil {
			b.Fatal(err)
		}
		cur.Store(srv)
		if _, err := uploadOnce(s, hs.URL, nil); err != nil {
			b.Fatal(err)
		}
	}
}

package transport

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/evalvid"
	"repro/internal/netem"
	"repro/internal/rtp"
	"repro/internal/vcrypt"
	"repro/internal/video"
)

func TestLiveUDPEndToEnd(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES256}
	s, clip := testSession(t, video.MotionLow, pol)
	rx, err := NewLiveReceiver(s.Config, pol.Alg, s.Key, "127.0.0.1:0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	ev, err := NewLiveReceiver(s.Config, pol.Alg, nil, "127.0.0.1:0", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()

	rep, err := LiveUDPSend(s, rx.Addr(), ev.Addr(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets == 0 || rep.Encrypted == 0 {
		t.Fatalf("send report %+v", rep)
	}
	if err := rx.WaitForPackets(rep.Packets, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ev.WaitForPackets(rep.Packets, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	rxFrames := rx.Frames(len(s.Encoded))
	rxClip, err := codec.DecodeSequence(rxFrames, s.Config)
	if err != nil {
		t.Fatal(err)
	}
	q, err := evalvid.Evaluate(clip, rxClip)
	if err != nil {
		t.Fatal(err)
	}
	if q.PSNR < 30 {
		t.Fatalf("live receiver PSNR %.1f", q.PSNR)
	}

	evClip, _ := codec.DecodeSequence(ev.Frames(len(s.Encoded)), s.Config)
	qe, _ := evalvid.Evaluate(clip, evClip)
	if qe.PSNR > q.PSNR-8 {
		t.Fatalf("live eavesdropper too sharp: %.1f vs %.1f", qe.PSNR, q.PSNR)
	}
	// The eavesdropper captured everything but could use only plaintext.
	captured, usable := ev.Stats()
	if captured != rep.Packets {
		t.Fatalf("eavesdropper captured %d of %d", captured, rep.Packets)
	}
	if usable != rep.Packets-rep.Encrypted {
		t.Fatalf("eavesdropper used %d, want %d", usable, rep.Packets-rep.Encrypted)
	}
}

func TestLiveUDPWithLossFilter(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeNone, Alg: vcrypt.AES128}
	s, _ := testSession(t, video.MotionLow, pol)
	rx, err := NewLiveReceiver(s.Config, pol.Alg, s.Key, "127.0.0.1:0", 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	rep, err := LiveUDPSend(s, rx.Addr(), "", false)
	if err != nil {
		t.Fatal(err)
	}
	// Give datagrams time to land, then confirm the filter dropped some.
	time.Sleep(200 * time.Millisecond)
	captured, _ := rx.Stats()
	if captured >= rep.Packets {
		t.Fatalf("loss filter passed everything (%d of %d)", captured, rep.Packets)
	}
}

// pacingSlack is how much earlier than its schedule a paced frame may
// seem to arrive. Frame 0's first datagram anchors the schedule, so
// listener wake-up jitter on that one arrival shifts every later frame;
// a frame released one slot early would still miss by 20ms - 6ms.
const pacingSlack = 6 * time.Millisecond

// TestLiveUDPPacing checks that both UDP senders release every frame on
// the capture schedule. A raw listener timestamps each arrival: frames
// must arrive in order, and no datagram of frame f may arrive earlier
// than f/FPS after frame 0's first datagram, less pacingSlack. The
// senders encrypt a frame before its pacing sleep; that work must not
// move the release time.
func TestLiveUDPPacing(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIFrames, Alg: vcrypt.AES128}
	s, _ := testSession(t, video.MotionLow, pol)
	s.Encoded = s.Encoded[:6]
	s.FPS = 50
	senders := []struct {
		name string
		send func(addr string) (LiveSendReport, error)
	}{
		{"plain", func(addr string) (LiveSendReport, error) { return LiveUDPSend(s, addr, "", true) }},
		{"reliable", func(addr string) (LiveSendReport, error) {
			return LiveUDPSendReliable(s, addr, "", true, ReliableUDPOptions{Drain: 10 * time.Millisecond})
		}},
	}
	for _, sd := range senders {
		t.Run(sd.name, func(t *testing.T) {
			conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			type arrival struct {
				frame int
				at    time.Time
			}
			// Sized above the datagrams of the six frames sent, so the
			// reader never blocks and stamps each arrival as it lands.
			arrivals := make(chan arrival, 4096)
			go func() {
				buf := make([]byte, 65536)
				for {
					n, err := conn.Read(buf)
					at := time.Now()
					if err != nil {
						return
					}
					if p, err := rtp.Parse(buf[:n]); err == nil {
						arrivals <- arrival{int(math.Round(float64(p.Timestamp) * s.FPS / rtp.ClockRate)), at}
					}
				}
			}()
			rep, err := sd.send(conn.LocalAddr().String())
			if err != nil {
				t.Fatal(err)
			}
			var t0 time.Time
			last := 0
			for i := 0; i < rep.Packets; i++ {
				var a arrival
				select {
				case a = <-arrivals:
				case <-time.After(5 * time.Second):
					t.Fatalf("captured %d of %d datagrams", i, rep.Packets)
				}
				if i == 0 {
					if a.frame != 0 {
						t.Fatalf("first datagram belongs to frame %d", a.frame)
					}
					t0 = a.at
				}
				if a.frame < last {
					t.Fatalf("datagram of frame %d arrived after frame %d", a.frame, last)
				}
				last = a.frame
				due := time.Duration(float64(a.frame) / s.FPS * float64(time.Second))
				if got := a.at.Sub(t0); got < due-pacingSlack {
					t.Fatalf("frame %d arrived %v after frame 0, due at %v", a.frame, got, due)
				}
			}
			if last != len(s.Encoded)-1 {
				t.Fatalf("last frame captured is %d, want %d", last, len(s.Encoded)-1)
			}
		})
	}
}

// uploadOnce uploads s to a server the test expects to take it in one
// clean POST: no retry after a failure, and an attempt that fails
// part-way and would be resumed is an error too.
func uploadOnce(s Session, url string, pacer *netem.Pacer) (ResumeReport, error) {
	rep, err := ResumableHTTPUpload(s, url, pacer, RetryPolicy{MaxAttempts: 1, Seed: 1}, nil)
	if err == nil && (rep.Attempts != 1 || rep.Resumes != 0) {
		err = fmt.Errorf("upload took %d attempts and %d resumes, want one clean POST", rep.Attempts, rep.Resumes)
	}
	return rep, err
}

// TestLiveHTTPUpload runs one clean upload through ResumableHTTPUpload
// and checks the report against the server's count and its wire tap.
func TestLiveHTTPUpload(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeIPlusFracP, FracP: 0.2, Alg: vcrypt.AES256}
	s, clip := testSession(t, video.MotionMedium, pol)
	srv, err := NewHTTPUploadServer(s.Config, pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var tapped, tappedEnc int
	srv.Tap = func(seq uint64, encrypted bool, payload []byte) {
		mu.Lock()
		tapped++
		if encrypted {
			tappedEnc++
		}
		mu.Unlock()
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	rep, err := uploadOnce(s, hs.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments == 0 || rep.Encrypted == 0 {
		t.Fatalf("upload report %+v", rep)
	}
	if srv.Segments() != rep.Segments {
		t.Fatalf("server saw %d segments, sender sent %d", srv.Segments(), rep.Segments)
	}
	mu.Lock()
	if tapped != rep.Segments || tappedEnc != rep.Encrypted {
		t.Fatalf("tap saw %d/%d, want %d/%d", tapped, tappedEnc, rep.Segments, rep.Encrypted)
	}
	mu.Unlock()

	rxClip, err := codec.DecodeSequence(srv.Frames(len(s.Encoded)), s.Config)
	if err != nil {
		t.Fatal(err)
	}
	q, err := evalvid.Evaluate(clip, rxClip)
	if err != nil {
		t.Fatal(err)
	}
	if q.PSNR < 30 {
		t.Fatalf("HTTP receiver PSNR %.1f", q.PSNR)
	}
}

func TestLiveHTTPUploadPaced(t *testing.T) {
	pol := vcrypt.Policy{Mode: vcrypt.ModeNone, Alg: vcrypt.AES128}
	s, _ := testSession(t, video.MotionLow, pol)
	s.Encoded = s.Encoded[:4]
	srv, err := NewHTTPUploadServer(s.Config, pol.Alg, s.Key)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	// Total bytes of 4 low-motion frames is a few kB; a 50 kB/s pacer
	// makes the upload take a measurable fraction of a second.
	pacer, err := netem.NewPacer(50e3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := uploadOnce(s, hs.URL, pacer)
	if err != nil {
		t.Fatal(err)
	}
	minTime := time.Duration(float64(rep.Bytes) / 50e3 * float64(time.Second) * 0.5)
	if rep.Elapsed < minTime {
		t.Fatalf("paced upload of %d bytes finished in %v (< %v)", rep.Bytes, rep.Elapsed, minTime)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	var buf syncBuffer
	if err := WriteSegment(&buf, 77, true, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	seq, enc, payload, err := ReadSegment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 77 || !enc || string(payload) != "hello" {
		t.Fatalf("round trip got (%d, %v, %q)", seq, enc, payload)
	}
}

// TestReadSegmentIntoReusesBuffer reads segments through one buffer the
// way ServeHTTP does: a long segment after a short one (the buffer
// grows) and a short one after a long one (it is reused) both come back
// intact, and an empty segment between them is read as empty.
func TestReadSegmentIntoReusesBuffer(t *testing.T) {
	long := bytes.Repeat([]byte{0xAB}, 3000)
	sent := [][]byte{[]byte("short"), long, []byte("tiny"), {}, long[:1200]}
	var wire syncBuffer
	for i, p := range sent {
		if err := WriteSegment(&wire, uint64(i), i%2 == 0, p); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for i, want := range sent {
		seq, enc, payload, err := readSegmentInto(&wire, buf)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if seq != uint64(i) || enc != (i%2 == 0) || !bytes.Equal(payload, want) {
			t.Fatalf("segment %d = (%d, %v, %d bytes), want (%d, %v, %d bytes)", i, seq, enc, len(payload), i, i%2 == 0, len(want))
		}
		if i == 2 && &payload[0] != &buf[0] {
			t.Fatal("a short segment after a long one did not reuse the buffer")
		}
		buf = payload
	}
	if _, _, _, err := readSegmentInto(&wire, buf); err == nil {
		t.Fatal("read past the last segment succeeded")
	}
}

// syncBuffer is a minimal in-memory io.ReadWriter for segment tests.
type syncBuffer struct {
	data []byte
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *syncBuffer) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, errEOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

var errEOF = errIO("EOF")

type errIO string

func (e errIO) Error() string { return string(e) }

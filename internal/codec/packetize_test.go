package codec

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/video"
)

const testMTU = 1400

func encodeOne(t *testing.T, motion video.MotionLevel) ([]*video.Frame, []*EncodedFrame, Config) {
	t.Helper()
	clip := video.Generate(video.SceneConfig{W: 96, H: 96, Frames: 12, Motion: motion, Seed: 21})
	cfg := smallConfig(6)
	encoded, err := EncodeSequence(clip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return clip, encoded, cfg
}

func TestPacketizeRespectsMTU(t *testing.T) {
	_, encoded, _ := encodeOne(t, video.MotionMedium)
	for _, ef := range encoded {
		pkts, err := Packetize(ef, testMTU)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkts) == 0 {
			t.Fatal("frame produced no packets")
		}
		for _, p := range pkts {
			if p.MBCount > 1 && len(p.Payload) > testMTU {
				t.Fatalf("multi-MB packet of %d bytes exceeds MTU", len(p.Payload))
			}
		}
	}
}

func TestPacketizeCoversAllMacroblocks(t *testing.T) {
	_, encoded, cfg := encodeOne(t, video.MotionHigh)
	total := cfg.MBCols() * cfg.MBRows()
	for _, ef := range encoded {
		pkts, err := Packetize(ef, testMTU)
		if err != nil {
			t.Fatal(err)
		}
		covered := make([]bool, total)
		for _, p := range pkts {
			for i := p.MBStart; i < p.MBStart+p.MBCount; i++ {
				if covered[i] {
					t.Fatalf("macroblock %d covered twice", i)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("macroblock %d not covered", i)
			}
		}
	}
}

func TestIFramesFragmentPFramesDoNot(t *testing.T) {
	_, encoded, _ := encodeOne(t, video.MotionLow)
	for _, ef := range encoded {
		pkts, _ := Packetize(ef, testMTU)
		if ef.Type == IFrame && len(pkts) < 2 {
			t.Fatalf("I-frame of %d bytes produced only %d packets", ef.Size(), len(pkts))
		}
		if ef.Type == PFrame && len(pkts) != 1 {
			t.Fatalf("slow-motion P-frame of %d bytes fragmented into %d packets", ef.Size(), len(pkts))
		}
	}
}

func TestReassembleLossless(t *testing.T) {
	clip, encoded, cfg := encodeOne(t, video.MotionMedium)
	re, err := NewReassembler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ef := range encoded {
		pkts, _ := Packetize(ef, testMTU)
		for _, p := range pkts {
			if err := re.Add(p.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	frames := re.Frames(len(encoded))
	decoded, err := DecodeSequence(frames, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := DecodeSequence(encoded, cfg)
	for i := range decoded {
		if video.MSE(decoded[i], want[i]) != 0 {
			t.Fatalf("frame %d differs after packetize/reassemble", i)
		}
	}
	// The original clip should be well represented too.
	if psnr := video.SequencePSNR(clip, decoded); psnr < 30 {
		t.Fatalf("PSNR after lossless transport %.2f", psnr)
	}
}

func TestReassembleWithLossConcealsOnly(t *testing.T) {
	_, encoded, cfg := encodeOne(t, video.MotionMedium)
	re, _ := NewReassembler(cfg)
	dropped := 0
	for _, ef := range encoded {
		pkts, _ := Packetize(ef, testMTU)
		for i, p := range pkts {
			if ef.Type == IFrame && i%3 == 0 {
				dropped++
				continue // drop every third I-frame slice
			}
			if err := re.Add(p.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if dropped == 0 {
		t.Fatal("test expected to drop some slices")
	}
	frames := re.Frames(len(encoded))
	decoded, err := DecodeSequence(frames, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(encoded) {
		t.Fatal("frame count changed")
	}
}

func TestParsePacketHeader(t *testing.T) {
	_, encoded, _ := encodeOne(t, video.MotionLow)
	pkts, _ := Packetize(encoded[0], testMTU)
	p, err := ParsePacket(pkts[1].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if p.FrameNumber != 0 || p.Type != IFrame || p.MBStart != pkts[1].MBStart || p.MBCount != pkts[1].MBCount {
		t.Fatalf("parsed header %+v vs %+v", p, pkts[1])
	}
	if !p.IsIFrame() {
		t.Fatal("IsIFrame wrong")
	}
}

func TestParsePacketGarbage(t *testing.T) {
	// Random bytes must never panic, only error or parse benignly.
	f := func(data []byte) bool {
		if _, err := ParsePacket(data); err != nil {
			return true
		}
		_, _, err := SliceMBs(data)
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReassemblerRejectsOutOfRange(t *testing.T) {
	_, _, cfg := encodeOne(t, video.MotionLow)
	re, _ := NewReassembler(cfg)
	// A slice claiming an out-of-range macroblock index must be rejected.
	big := &EncodedFrame{Number: 0, Type: IFrame, MBData: make([][]byte, 100000)}
	big.MBData[99999] = []byte{1}
	payload := AppendSlice(nil, big, 99999, 1)
	if err := re.Add(payload); err == nil {
		t.Fatal("out-of-range slice should be rejected")
	}
}

func TestPacketizeTinyMTU(t *testing.T) {
	_, encoded, _ := encodeOne(t, video.MotionLow)
	if _, err := Packetize(encoded[0], 10); err == nil {
		t.Fatal("tiny MTU should fail")
	}
}

func TestAnalyzeClipStats(t *testing.T) {
	_, encoded, cfg := encodeOne(t, video.MotionLow)
	st, err := AnalyzeClip(encoded, cfg, testMTU)
	if err != nil {
		t.Fatal(err)
	}
	if st.IFrames != 2 || st.PFrames != 10 {
		t.Fatalf("frame counts %d/%d", st.IFrames, st.PFrames)
	}
	if st.MeanISize <= st.MeanPSize {
		t.Fatalf("mean I %v <= mean P %v", st.MeanISize, st.MeanPSize)
	}
	if st.IFraction <= 0 || st.IFraction >= 1 {
		t.Fatalf("pI = %v", st.IFraction)
	}
	if st.MeanPacketsPerIFrame() < 2 || st.MeanPacketsPerPFrame() != 1 {
		t.Fatalf("packets/frame: I %v P %v", st.MeanPacketsPerIFrame(), st.MeanPacketsPerPFrame())
	}
	if st.TotalBytes <= 0 {
		t.Fatal("no bytes counted")
	}
}

func TestContainerRoundTrip(t *testing.T) {
	_, encoded, cfg := encodeOne(t, video.MotionMedium)
	var buf syncWriter
	if err := WriteContainer(&buf, cfg, encoded); err != nil {
		t.Fatal(err)
	}
	gotCfg, gotFrames, err := ReadContainer(&byteReader{data: buf.data})
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg != cfg {
		t.Fatalf("config round trip: %+v vs %+v", gotCfg, cfg)
	}
	if len(gotFrames) != len(encoded) {
		t.Fatalf("frame count %d vs %d", len(gotFrames), len(encoded))
	}
	for i := range encoded {
		if gotFrames[i].Type != encoded[i].Type || gotFrames[i].Size() != encoded[i].Size() {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	// Decoded output must be identical.
	a, _ := DecodeSequence(encoded, cfg)
	b, _ := DecodeSequence(gotFrames, cfg)
	for i := range a {
		if video.MSE(a[i], b[i]) != 0 {
			t.Fatalf("frame %d decodes differently after container round trip", i)
		}
	}
}

func TestContainerRejectsGarbage(t *testing.T) {
	if _, _, err := ReadContainer(&byteReader{data: []byte("NOPE nope")}); err == nil {
		t.Fatal("bad magic should fail")
	}
	if _, _, err := ReadContainer(&byteReader{}); err == nil {
		t.Fatal("empty input should fail")
	}
}

type syncWriter struct{ data []byte }

func (w *syncWriter) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, errEOFc
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

var errEOFc = errC("EOF")

type errC string

func (e errC) Error() string { return string(e) }

// TestReassemblerCopiesOnce checks what Add keeps of a payload: the
// frames survive the caller overwriting its payload buffer, every
// chunk's capacity equals its length (appending to one chunk cannot
// overwrite the next), and empty chunks stay nil.
func TestReassemblerCopiesOnce(t *testing.T) {
	_, encoded, cfg := encodeOne(t, video.MotionMedium)
	ef := encoded[0]
	ef.MBData[2] = nil
	re, _ := NewReassembler(cfg)
	pkts, _ := Packetize(ef, testMTU)
	for _, p := range pkts {
		if err := re.Add(p.Payload); err != nil {
			t.Fatal(err)
		}
		for i := range p.Payload {
			p.Payload[i] = 0xFF
		}
	}
	got := re.Frame(ef.Number)
	for j, want := range ef.MBData {
		c := got.MBData[j]
		if !bytes.Equal(c, want) || (c == nil) != (len(want) == 0) {
			t.Fatalf("chunk %d = %x, want %x", j, c, want)
		}
		if cap(c) != len(c) {
			t.Fatalf("chunk %d has cap %d, len %d", j, cap(c), len(c))
		}
	}
	_ = append(got.MBData[0], 0xEE)
	if !bytes.Equal(got.MBData[1], ef.MBData[1]) {
		t.Fatal("appending to chunk 0 overwrote chunk 1")
	}
}

// TestReassemblerAddAllocs pins Add into an existing frame below one
// allocation per call: the copy goes into the arena, whose chunks (and
// the rebuilds that resending one slice over and over sets off) come
// once per many packets. AllocsPerRun truncates the mean, so 0.
func TestReassemblerAddAllocs(t *testing.T) {
	_, encoded, cfg := encodeOne(t, video.MotionMedium)
	re, _ := NewReassembler(cfg)
	pkts, _ := Packetize(encoded[0], testMTU)
	payload := pkts[len(pkts)/2].Payload
	if err := re.Add(payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := re.Add(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Add allocates %.1f times per packet, want less than 1", allocs)
	}
}

// TestReassemblerOverlappingAdds replays 10k slices over random,
// overlapping ranges of a few frames, resends included. After every Add
// no frame may hold more slices than it has macroblocks, and the views
// must equal what the reference algorithm leaves.
func TestReassemblerOverlappingAdds(t *testing.T) {
	cfg := smallConfig(6)
	total := cfg.MBCols() * cfg.MBRows()
	re, _ := NewReassembler(cfg)
	ref := map[int]*EncodedFrame{}
	rng := rand.New(rand.NewSource(7))
	src := &EncodedFrame{MBData: make([][]byte, total)}
	compacted := false
	for i := 0; i < 10000; i++ {
		src.Number, src.Type = rng.Intn(3), FrameType(rng.Intn(3))
		start := rng.Intn(total)
		count := 1 + rng.Intn(min(total-start, 6))
		if rng.Intn(50) == 0 {
			start, count = 0, total
		}
		for j := start; j < start+count; j++ {
			src.MBData[j] = src.MBData[j][:0]
			for k := rng.Intn(4); k > 0; k-- {
				src.MBData[j] = append(src.MBData[j], byte(i), byte(k))
			}
		}
		payload := AppendSlice(nil, src, start, count)
		before := len(re.frames[src.Number].slices)
		if err := re.Add(payload); err != nil {
			t.Fatal(err)
		}
		if err := refAdd(ref, total, payload); err != nil {
			t.Fatal(err)
		}
		held := len(re.frames[src.Number].slices)
		if held > total {
			t.Fatalf("Add %d: frame %d holds %d slices, more than its %d macroblocks", i, src.Number, held, total)
		}
		compacted = compacted || (before == total && held == 1 && count < total)
		if err := sameFrames(re, ref); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	if !compacted {
		t.Fatal("no frame was compacted; the test does not reach the bound")
	}
}

// cifClip is the wire payload of a 300-frame CIF clip, packetized at
// testMTU, with the config it was encoded with. It is encoded once per
// test binary; the tests that use it skip under -short and -race, where
// the encode takes about 20 s.
var cifClip struct {
	once     sync.Once
	cfg      Config
	payloads [][]byte
	wire     int
	err      error
}

func cifPayloads(t *testing.T) (Config, [][]byte, int) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("encodes a 300-frame CIF clip (about 20 s under -race)")
	}
	c := &cifClip
	c.once.Do(func() {
		c.cfg = DefaultConfig(30)
		clip := video.Generate(video.SceneConfig{
			W: video.CIFWidth, H: video.CIFHeight, Frames: 300,
			Motion: video.MotionMedium, Seed: 9,
		})
		encoded, err := EncodeSequence(clip, c.cfg)
		if err != nil {
			c.err = err
			return
		}
		for _, ef := range encoded {
			pkts, err := Packetize(ef, testMTU)
			if err != nil {
				c.err = err
				return
			}
			for _, p := range pkts {
				c.payloads = append(c.payloads, p.Payload)
				c.wire += len(p.Payload)
			}
		}
	})
	if c.err != nil {
		t.Fatal(c.err)
	}
	return c.cfg, c.payloads, c.wire
}

// TestReassemblerRetainsPayload bounds what a reassembler holding a
// whole clip (300 CIF frames) keeps on the heap against the clip's wire
// payload: the slices that arrived, not a slice header per macroblock
// for every frame.
func TestReassemblerRetainsPayload(t *testing.T) {
	cfg, payloads, wire := cifPayloads(t)
	heap := func() uint64 {
		// Two collections: the first only moves sync.Pool contents to
		// the victim cache.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	re, _ := NewReassembler(cfg)
	for _, p := range payloads {
		if err := re.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	retained := float64(heap()) - float64(base)
	runtime.KeepAlive(re)
	if ratio := retained / float64(wire); ratio > 1.5 {
		t.Fatalf("reassembler retains %.0f B for %d B of wire payload (%.2fx), want at most 1.5x", retained, wire, ratio)
	}
}

// heldBytes is the total length of the slice bodies r holds.
func heldBytes(r *Reassembler) int {
	n := 0
	for _, f := range r.frames {
		for _, s := range f.slices {
			n += len(s.body)
		}
	}
	return n
}

// TestReassemblerArenaBound replays 10k covering and overlapping
// resends over a few frames, a whole-frame resend of oversized chunks
// among them now and then. After every Add the live-byte counter must
// equal the held bodies, the arena must stay within twice the held
// bytes plus one chunk, and when the arena was rebuilt every view taken
// before must read as it did.
func TestReassemblerArenaBound(t *testing.T) {
	cfg := smallConfig(6)
	total := cfg.MBCols() * cfg.MBRows()
	re, _ := NewReassembler(cfg)
	rng := rand.New(rand.NewSource(11))
	src := &EncodedFrame{MBData: make([][]byte, total)}
	var kept, keptCopies []*EncodedFrame
	rebuilds := 0
	for i := 0; i < 10000; i++ {
		src.Number, src.Type = rng.Intn(3), FrameType(rng.Intn(3))
		start := rng.Intn(total)
		count := 1 + rng.Intn(min(total-start, 6))
		size := 40
		if rng.Intn(50) == 0 {
			start, count, size = 0, total, 4000
		}
		for j := start; j < start+count; j++ {
			src.MBData[j] = src.MBData[j][:0]
			for k := rng.Intn(size); k > 0; k-- {
				src.MBData[j] = append(src.MBData[j], byte(i), byte(k))
			}
		}
		var views, copies []*EncodedFrame
		for n := range re.frames {
			v := re.Frame(n)
			views, copies = append(views, v), append(copies, cloneFrame(v))
		}
		if i%500 == 0 {
			kept, keptCopies = append(kept, views...), append(keptCopies, copies...)
		}
		arena := re.arena
		if err := re.Add(AppendSlice(nil, src, start, count)); err != nil {
			t.Fatal(err)
		}
		held := heldBytes(re)
		if re.live != held {
			t.Fatalf("Add %d: live counter %d, held bodies %d", i, re.live, held)
		}
		if re.arena > 2*held+maxChunk {
			t.Fatalf("Add %d: arena %d B for %d held B, want at most %d", i, re.arena, held, 2*held+maxChunk)
		}
		if re.arena < arena {
			rebuilds++
			for k, v := range views {
				if err := sameFrame(v, copies[k]); err != nil {
					t.Fatalf("Add %d: view of frame %d changed by the rebuild: %v", i, v.Number, err)
				}
			}
		}
	}
	for k, v := range kept {
		if err := sameFrame(v, keptCopies[k]); err != nil {
			t.Fatalf("view of frame %d changed under later Adds: %v", v.Number, err)
		}
	}
	if rebuilds == 0 {
		t.Fatal("the arena was never rebuilt; the test does not reach the bound")
	}
}

// TestReassemblerFreesWholeSpans feeds a CIF clip round-robin to
// several reassemblers, as interleaved ingest sessions receive it, then
// drops the half whose last packet came first. Their bytes must go back
// as whole spans: the heap's free slots inside spans that stay in use
// (/memory/classes/heap/unused) may grow by at most a quarter of what
// the survivors hold; it grows by about 0.09x, the survivors' per-frame
// slice lists and smallest chunks. With one heap object per packet, the
// dropped sessions' packets left holes in spans the survivors keep
// resident, 1.13x the survivors' own payload.
func TestReassemblerFreesWholeSpans(t *testing.T) {
	cfg, payloads, wire := cifPayloads(t)
	const sessions = 16
	unused := func() uint64 {
		runtime.GC()
		debug.FreeOSMemory()
		s := []metrics.Sample{{Name: "/memory/classes/heap/unused:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	base := unused()
	res := make([]*Reassembler, sessions)
	for i := range res {
		res[i], _ = NewReassembler(cfg)
	}
	for _, p := range payloads {
		for _, re := range res {
			if err := re.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	clear(res[:sessions/2])
	grown := float64(unused()) - float64(base)
	survivors := float64(sessions/2) * float64(wire)
	runtime.KeepAlive(res)
	if grown > survivors/4 {
		t.Fatalf("heap/unused grew %.0f B with %.0f B of survivors' payload (%.2fx), want at most 0.25x", grown, survivors, grown/survivors)
	}
}

// TestReassemblerAddAllocsOverClip pins the mean allocations per Add
// over a whole CIF clip (1091 packets, 300 frames) into a fresh
// reassembler at 0.45. It measures 0.40: per frame its slice list and a
// share of the frame map's growth, and one arena chunk per 64 KiB of
// payload. One heap object per packet measured 1.38.
func TestReassemblerAddAllocsOverClip(t *testing.T) {
	cfg, payloads, _ := cifPayloads(t)
	allocs := testing.AllocsPerRun(3, func() {
		re, _ := NewReassembler(cfg)
		for _, p := range payloads {
			if err := re.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(payloads))
	if allocs > 0.45 {
		t.Fatalf("Add allocates %.3f times per packet over the clip, want at most 0.45", allocs)
	}
}

package codec

import (
	"fmt"

	"repro/internal/video"
)

// B-frame support. The paper's GOP definition (Section 2) is an I-frame
// followed by P and optionally B frames; its evaluation uses IPP...P, and
// so does this reproduction's, but the codec substrate would be incomplete
// without the optional part. With Config.BFrames = n > 0 the display
// structure becomes I B..B P B..B P ... and the encoder emits frames in
// coding order (each anchor before the B-frames that reference it), with
// EncodedFrame.Number still carrying the display index. B-frames predict
// each macroblock forward, backward, or bidirectionally from the two
// surrounding anchors, which is what makes them cheaper than P-frames.

// BFrame is the bidirectionally predicted frame type.
const BFrame FrameType = 2

// bMode is the per-macroblock prediction mode of a B frame.
const (
	bModeFwd = iota
	bModeBwd
	bModeBi
)

// ValidateB extends Config.Validate for B-frame use.
func (c Config) ValidateB() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.BFrames < 0 || c.BFrames > 3 {
		return fmt.Errorf("codec: BFrames %d out of [0,3]", c.BFrames)
	}
	if c.BFrames > 0 && c.GOPSize%(c.BFrames+1) != 0 {
		return fmt.Errorf("codec: GOP size %d not a multiple of the anchor distance %d", c.GOPSize, c.BFrames+1)
	}
	return nil
}

// EncodeSequenceB compresses a clip with the configured number of
// B-frames between anchors, returning frames in coding order. With
// cfg.BFrames == 0 it is identical to EncodeSequence.
func EncodeSequenceB(frames []*video.Frame, cfg Config) ([]*EncodedFrame, error) {
	if err := cfg.ValidateB(); err != nil {
		return nil, err
	}
	if cfg.BFrames == 0 {
		return EncodeSequence(frames, cfg)
	}
	// The inner encoder sees only the anchor frames, so its GOP counter
	// runs in anchor units.
	anchorCfg := cfg
	anchorCfg.GOPSize = cfg.GOPSize / (cfg.BFrames + 1)
	anchorCfg.BFrames = 0
	enc, err := NewEncoder(anchorCfg)
	if err != nil {
		return nil, err
	}
	// Anchor reconstructions stay referenced (prevAnchorRecon/curRecon)
	// across Encode calls, so they must not be recycled into the frame
	// pool when the encoder moves on.
	enc.retainRefs = true
	var out []*EncodedFrame
	step := cfg.BFrames + 1
	var prevAnchorRecon *video.Frame
	var prevAnchorIdx int
	for a := 0; a < len(frames); a += step {
		// Encode the anchor (I at GOP boundaries, P otherwise) through the
		// regular encoder, which maintains the anchor reference chain.
		ef, err := enc.Encode(frames[a])
		if err != nil {
			return nil, err
		}
		ef.Number = a
		out = append(out, ef)
		curRecon := enc.ref
		// Encode the B frames between the previous anchor and this one.
		if prevAnchorRecon != nil {
			for d := prevAnchorIdx + 1; d < a; d++ {
				bf := encodeBFrame(frames[d], prevAnchorRecon, curRecon, cfg)
				bf.Number = d
				out = append(out, bf)
			}
		}
		prevAnchorRecon = curRecon
		prevAnchorIdx = a
	}
	// Trailing frames after the last anchor have no backward reference;
	// encode them as ordinary P frames continuing the chain (forced P so
	// the anchor-unit GOP counter cannot spuriously restart a GOP).
	for d := prevAnchorIdx + 1; d < len(frames); d++ {
		ef, err := enc.encodeAs(frames[d], PFrame)
		if err != nil {
			return nil, err
		}
		ef.Number = d
		out = append(out, ef)
	}
	return out, nil
}

// encodeBFrame codes one bidirectional frame against two reconstructed
// anchors. It does not touch the anchor prediction chain. B macroblocks
// have no coded-neighbour dependencies, so rows parallelise freely.
func encodeBFrame(src, fwd, bwd *video.Frame, cfg Config) *EncodedFrame {
	cols, rows := cfg.MBCols(), cfg.MBRows()
	out := newWireFrame(0, BFrame, cols, rows)
	row := func(my int) {
		sc := getScratch()
		var arena []byte
		sc.lens = sc.lens[:0]
		for mx := 0; mx < cols; mx++ {
			sc.w.reset()
			encodeBMB(sc, src, fwd, bwd, mx, my, cfg)
			chunk := sc.w.bytes()
			arena = appendChunk(arena, chunk)
			sc.lens = append(sc.lens, len(chunk))
		}
		out.setRow(my, arena, sc.lens)
		putScratch(sc)
	}
	if workers := cfg.rowWorkers(rows); workers > 1 {
		parallelFor(workers, rows, row)
	} else {
		for my := 0; my < rows; my++ {
			row(my)
		}
	}
	return out
}

// biPredict fills pred with the chosen prediction for an 8x8 luma block.
func biPredictLuma(fwd, bwd *video.Frame, mode, x0, y0, fdx, fdy, bdx, bdy int, pred *[64]float64) {
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			var v float64
			switch mode {
			case bModeFwd:
				v = float64(fwd.LumaAt(x0+x+fdx, y0+y+fdy))
			case bModeBwd:
				v = float64(bwd.LumaAt(x0+x+bdx, y0+y+bdy))
			default:
				v = 0.5 * (float64(fwd.LumaAt(x0+x+fdx, y0+y+fdy)) +
					float64(bwd.LumaAt(x0+x+bdx, y0+y+bdy)))
			}
			pred[y*blockSize+x] = v
		}
	}
}

func encodeBMB(sc *mbScratch, src, fwd, bwd *video.Frame, mx, my int, cfg Config) {
	w := &sc.w
	x0, y0 := mx*mbSize, my*mbSize
	fdx, fdy := motionSearch(src, fwd, x0, y0, cfg, nil)
	bdx, bdy := motionSearch(src, bwd, x0, y0, cfg, nil)
	sadF := sadMB(src, fwd, x0, y0, fdx, fdy)
	sadB := sadMB(src, bwd, x0, y0, bdx, bdy)
	sadBi := sadBiMB(src, fwd, bwd, x0, y0, fdx, fdy, bdx, bdy)
	mode := bModeBi
	if sadF <= sadB && sadF <= sadBi {
		mode = bModeFwd
	} else if sadB <= sadBi {
		mode = bModeBwd
	}
	w.writeBits(uint64(mode), 2)
	if mode != bModeBwd {
		w.writeSE(int64(fdx))
		w.writeSE(int64(fdy))
	}
	if mode != bModeFwd {
		w.writeSE(int64(bdx))
		w.writeSE(int64(bdy))
	}
	samples, rec, pred := &sc.samples, &sc.rec, &sc.pred
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			bx0, by0 := x0+bx*blockSize, y0+by*blockSize
			biPredictLuma(fwd, bwd, mode, bx0, by0, fdx, fdy, bdx, bdy, pred)
			for i := 0; i < blockSize; i++ {
				for j := 0; j < blockSize; j++ {
					samples[i*blockSize+j] = float64(src.Y[(by0+i)*src.W+bx0+j]) - pred[i*blockSize+j]
				}
			}
			encodeBlock(w, samples, cfg.QP*1.1, rec)
		}
	}
	// Chroma: predict with halved vectors per plane.
	encodeBChroma(sc, src, fwd, bwd, mode, mx, my, fdx, fdy, bdx, bdy, cfg)
}

func sadBiMB(src, fwd, bwd *video.Frame, x0, y0, fdx, fdy, bdx, bdy int) int {
	var sad int
	for y := 0; y < mbSize; y++ {
		for x := 0; x < mbSize; x++ {
			s := float64(src.Y[(y0+y)*src.W+x0+x])
			p := 0.5 * (float64(fwd.LumaAt(x0+x+fdx, y0+y+fdy)) + float64(bwd.LumaAt(x0+x+bdx, y0+y+bdy)))
			d := s - p
			if d < 0 {
				d = -d
			}
			sad += int(d)
		}
	}
	return sad
}

func bChromaPredict(fwdP, bwdP []byte, cw, ch, mode, x, y, fdx, fdy, bdx, bdy int) float64 {
	switch mode {
	case bModeFwd:
		return chromaAt(fwdP, cw, ch, x+fdx, y+fdy)
	case bModeBwd:
		return chromaAt(bwdP, cw, ch, x+bdx, y+bdy)
	default:
		return 0.5 * (chromaAt(fwdP, cw, ch, x+fdx, y+fdy) + chromaAt(bwdP, cw, ch, x+bdx, y+bdy))
	}
}

func encodeBChroma(sc *mbScratch, src, fwd, bwd *video.Frame, mode, mx, my, fdx, fdy, bdx, bdy int, cfg Config) {
	w, samples, rec := &sc.w, &sc.samples, &sc.rec
	cw, ch := src.W/2, src.H/2
	cx0, cy0 := mx*mbSize/2, my*mbSize/2
	for plane := 0; plane < 2; plane++ {
		sp, fp, bp := src.Cb, fwd.Cb, bwd.Cb
		if plane == 1 {
			sp, fp, bp = src.Cr, fwd.Cr, bwd.Cr
		}
		for y := 0; y < blockSize; y++ {
			for x := 0; x < blockSize; x++ {
				p := bChromaPredict(fp, bp, cw, ch, mode, cx0+x, cy0+y, fdx/2, fdy/2, bdx/2, bdy/2)
				samples[y*blockSize+x] = float64(sp[(cy0+y)*cw+cx0+x]) - p
			}
		}
		encodeBlock(w, samples, cfg.QP*1.3, rec)
	}
}

// decodeBMB reverses encodeBMB into the output frame.
func decodeBMB(r *bitReader, fwd, bwd, out *video.Frame, mx, my int, cfg Config) error {
	x0, y0 := mx*mbSize, my*mbSize
	m64, err := r.readBits(2)
	if err != nil {
		return err
	}
	mode := int(m64)
	if mode > bModeBi {
		return errCorrupt
	}
	var fdx, fdy, bdx, bdy int
	if mode != bModeBwd {
		v1, err := r.readSE()
		if err != nil {
			return err
		}
		v2, err := r.readSE()
		if err != nil {
			return err
		}
		fdx, fdy = int(v1), int(v2)
	}
	if mode != bModeFwd {
		v1, err := r.readSE()
		if err != nil {
			return err
		}
		v2, err := r.readSE()
		if err != nil {
			return err
		}
		bdx, bdy = int(v1), int(v2)
	}
	if fdx < -64 || fdx > 64 || fdy < -64 || fdy > 64 || bdx < -64 || bdx > 64 || bdy < -64 || bdy > 64 {
		return errCorrupt
	}
	var rec, pred [64]float64
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			bx0, by0 := x0+bx*blockSize, y0+by*blockSize
			if err := decodeBlock(r, cfg.QP*1.1, &rec); err != nil {
				return err
			}
			biPredictLuma(fwd, bwd, mode, bx0, by0, fdx, fdy, bdx, bdy, &pred)
			for i := 0; i < blockSize; i++ {
				for j := 0; j < blockSize; j++ {
					out.Y[(by0+i)*out.W+bx0+j] = clampByte(pred[i*blockSize+j] + rec[i*blockSize+j])
				}
			}
		}
	}
	cw, ch := out.W/2, out.H/2
	cx0, cy0 := x0/2, y0/2
	for plane := 0; plane < 2; plane++ {
		fp, bp, op := fwd.Cb, bwd.Cb, out.Cb
		if plane == 1 {
			fp, bp, op = fwd.Cr, bwd.Cr, out.Cr
		}
		if err := decodeBlock(r, cfg.QP*1.3, &rec); err != nil {
			return err
		}
		for y := 0; y < blockSize; y++ {
			for x := 0; x < blockSize; x++ {
				p := bChromaPredict(fp, bp, cw, ch, mode, cx0+x, cy0+y, fdx/2, fdy/2, bdx/2, bdy/2)
				op[(cy0+y)*cw+cx0+x] = clampByte(p + rec[y*blockSize+x])
			}
		}
	}
	return nil
}

// DecodeSequenceB reconstructs a coding-order stream produced by
// EncodeSequenceB into display order. Lost anchors conceal like the
// IPP...P decoder; a lost or damaged B frame is concealed by its forward
// anchor (B frames are not references, so the damage never propagates).
func DecodeSequenceB(encoded []*EncodedFrame, cfg Config) ([]*video.Frame, error) {
	if err := cfg.ValidateB(); err != nil {
		return nil, err
	}
	if cfg.BFrames == 0 {
		return DecodeSequence(encoded, cfg)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, ef := range encoded {
		if ef == nil {
			return nil, fmt.Errorf("codec: B-stream decode needs frame headers; drop macroblocks, not whole entries")
		}
		if ef.Number+1 > total {
			total = ef.Number + 1
		}
	}
	out := make([]*video.Frame, total)
	var prevAnchor, curAnchor *video.Frame
	for _, ef := range encoded {
		switch ef.Type {
		case IFrame, PFrame:
			f := dec.Decode(ef)
			out[ef.Number] = f
			prevAnchor, curAnchor = curAnchor, f
		case BFrame:
			fwd, bwd := prevAnchor, curAnchor
			if fwd == nil {
				fwd = bwd
			}
			if fwd == nil {
				return nil, fmt.Errorf("codec: B frame %d before any anchor", ef.Number)
			}
			out[ef.Number] = decodeBFrame(ef, fwd, bwd, cfg)
		default:
			return nil, fmt.Errorf("codec: unknown frame type %d", ef.Type)
		}
	}
	// Any display slots never covered (whole coding entries missing is
	// rejected above, so this only guards irregular inputs).
	for i, f := range out {
		if f == nil {
			g := video.NewFrame(cfg.Width, cfg.Height)
			for k := range g.Y {
				g.Y[k] = 128
			}
			out[i] = g
		}
	}
	return out, nil
}

func decodeBFrame(ef *EncodedFrame, fwd, bwd *video.Frame, cfg Config) *video.Frame {
	out := video.NewFrame(cfg.Width, cfg.Height)
	if bwd == nil {
		bwd = fwd
	}
	cols, rows := cfg.MBCols(), cfg.MBRows()
	row := func(my int) {
		for mx := 0; mx < cols; mx++ {
			chunk := ef.MBData[my*cols+mx]
			ok := chunk != nil
			if ok {
				if err := decodeBMB(newBitReader(chunk), fwd, bwd, out, mx, my, cfg); err != nil {
					ok = false
				}
			}
			if !ok {
				// Conceal from the forward anchor.
				concealBMB(out, fwd, mx, my)
			}
		}
	}
	if workers := cfg.rowWorkers(rows); workers > 1 {
		parallelFor(workers, rows, row)
	} else {
		for my := 0; my < rows; my++ {
			row(my)
		}
	}
	return out
}

func concealBMB(out, ref *video.Frame, mx, my int) {
	x0, y0 := mx*mbSize, my*mbSize
	for y := y0; y < y0+mbSize; y++ {
		copy(out.Y[y*out.W+x0:y*out.W+x0+mbSize], ref.Y[y*out.W+x0:y*out.W+x0+mbSize])
	}
	cw := out.W / 2
	cx0, cy0 := x0/2, y0/2
	for y := cy0; y < cy0+mbSize/2; y++ {
		copy(out.Cb[y*cw+cx0:y*cw+cx0+mbSize/2], ref.Cb[y*cw+cx0:y*cw+cx0+mbSize/2])
		copy(out.Cr[y*cw+cx0:y*cw+cx0+mbSize/2], ref.Cr[y*cw+cx0:y*cw+cx0+mbSize/2])
	}
}

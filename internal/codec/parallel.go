package codec

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/video"
)

// Intra-frame parallelism. Frames are coded one macroblock row at a time;
// rows are distributed over Config.Workers goroutines that claim row
// indices from a shared atomic counter (always in ascending order). Each
// row writes its chunks into a fresh per-row arena and stores views of
// them at their raster positions in EncodedFrame.MBData, so the assembled
// bitstream is byte-for-byte the one the serial encoder emits regardless
// of scheduling.
//
// I-frame, B-frame and decode rows are mutually independent (intra MBs
// predict from flat 128, inter MBs from the previous reconstruction, and
// every MB writes a disjoint pixel region). P-frame *encode* rows are
// not: the motion search of MB (my, mx) is seeded with the vector chosen
// at (my-1, mx). Dropping that predictor would change the bitstream, so
// P-rows run as a wavefront instead: row my-1 sends one token on a
// buffered channel after each macroblock it finishes, and row my receives
// one token before each of its own macroblocks, which keeps it exactly
// one column behind. The channel send/receive pair also orders the mvs[]
// writes of the row above before the reads below. Because rows are
// claimed in ascending order, the lowest unfinished row never waits on an
// unclaimed one, so the wavefront cannot deadlock.

// mbScratch bundles the per-worker buffers of the macroblock hot path:
// the bitstream writer (its buffer is recycled between macroblocks after
// the chunk is copied into the row arena), the three 8x8 sample blocks,
// the motion-predictor candidate array, and the chunk lengths of the row
// being coded.
type mbScratch struct {
	w       bitWriter
	samples [64]float64
	rec     [64]float64
	pred    [64]float64
	starts  [3][2]int
	lens    []int
}

var scratchPool = sync.Pool{New: func() interface{} { return new(mbScratch) }}

func getScratch() *mbScratch   { return scratchPool.Get().(*mbScratch) }
func putScratch(sc *mbScratch) { scratchPool.Put(sc) }

// framePool recycles reconstruction frames (encoder references and the
// decoder's grey stand-in reference). Pooled frames come back dirty;
// every consumer either overwrites all three planes or fills them
// explicitly. Frames of the wrong geometry are dropped on Get.
var framePool sync.Pool

// getFrame returns a w x h frame with undefined contents.
func getFrame(w, h int) *video.Frame {
	for i := 0; i < 4; i++ {
		v := framePool.Get()
		if v == nil {
			break
		}
		f := v.(*video.Frame)
		if f.W == w && f.H == h {
			return f
		}
	}
	return video.NewFrame(w, h)
}

// putFrame returns a frame to the pool. Callers must not retain any
// reference to it afterwards.
func putFrame(f *video.Frame) {
	if f != nil {
		framePool.Put(f)
	}
}

// getGreyFrame returns a pooled frame with all planes at mid-grey.
func getGreyFrame(w, h int) *video.Frame {
	f := getFrame(w, h)
	for i := range f.Y {
		f.Y[i] = 128
	}
	for i := range f.Cb {
		f.Cb[i] = 128
		f.Cr[i] = 128
	}
	return f
}

// rowWorkers resolves the Workers knob against the macroblock row count:
// 0 and 1 both mean serial (the zero value keeps existing configurations
// byte-compatible), larger values are clamped to the row count.
func (c Config) rowWorkers(rows int) int {
	w := c.Workers
	if w > rows {
		w = rows
	}
	if w < 2 {
		return 1
	}
	return w
}

// parallelFor runs fn(i) for i in [0, n) on workers goroutines: the
// macroblock rows of a frame, or the GOPs of a clip. Indices are claimed
// in ascending order, which the P-frame wavefront relies on for deadlock
// freedom.
func parallelFor(workers, n int, fn func(i int)) {
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// encodeRow codes macroblock row my of a frame in the three batched
// phases of rowbatch.go. rowDone is the wavefront token array for
// P-frames (nil for I-frames and the serial path); tokens move entirely
// within the gather phase, which is the only phase that reads the row
// above's motion vectors — so a row's transform and emit phases overlap
// with its neighbours' gathers instead of serialising behind them. The
// row's chunks are packed into one wire-form arena (slicer.go); the
// arena must be fresh per row because the MBData views outlive the call.
func (e *Encoder) encodeRow(src, recon *video.Frame, out *EncodedFrame, mvs [][2]int, ft FrameType, my int, sc *mbScratch, rowDone []chan struct{}) {
	cols := e.cfg.MBCols()
	b := rowBatchPool.Get().(*rowBatch)
	b.resize(blocksPerMB * cols)
	// Phase A: motion search and sample gathering, wavefront order.
	for mx := 0; mx < cols; mx++ {
		if rowDone != nil && my > 0 {
			<-rowDone[my-1]
		}
		if ft == IFrame {
			gatherIntraMB(b, src, mx, my)
		} else {
			starts := sc.starts[:0]
			if mx > 0 {
				starts = append(starts, mvs[my*cols+mx-1])
			}
			if my > 0 {
				starts = append(starts, mvs[(my-1)*cols+mx])
			}
			if e.prevMVs != nil {
				starts = append(starts, e.prevMVs[my*cols+mx])
			}
			x0, y0 := mx*mbSize, my*mbSize
			dx, dy := motionSearch(src, e.ref, x0, y0, e.cfg, starts)
			mvs[my*cols+mx] = [2]int{dx, dy}
			gatherInterMB(b, src, e.ref, mx, my, dx, dy)
		}
		if rowDone != nil {
			rowDone[my] <- struct{}{}
		}
	}
	// Phase B: batched DCT + quantisation over the whole row.
	qL, qC := e.cfg.QI, e.cfg.QI*1.2
	if ft != IFrame {
		qL, qC = e.cfg.QP, e.cfg.QP*1.2
	}
	for i := range b.samples {
		q := qL
		if i%blocksPerMB >= 4 {
			q = qC
		}
		b.nonzero[i] = quantiseBlock(&b.samples[i], q, &b.quant[i])
	}
	// Phase C: entropy coding and reconstruction, per macroblock.
	var arena []byte
	sc.lens = sc.lens[:0]
	for mx := 0; mx < cols; mx++ {
		sc.w.reset()
		emitMB(b, sc, src, e.ref, recon, mvs, ft, mx, my, cols, qL, qC)
		chunk := sc.w.bytes()
		arena = appendChunk(arena, chunk)
		sc.lens = append(sc.lens, len(chunk))
	}
	out.setRow(my, arena, sc.lens)
	rowBatchPool.Put(b)
	// Row-granular accounting: two atomic adds per row, never per
	// macroblock, so the hot path stays allocation- and contention-free.
	mRowsEncoded.Inc()
	mMBsEncoded.Add(int64(cols))
}

// encodeRows codes every macroblock row of a frame, serially or on the
// configured worker pool.
func (e *Encoder) encodeRows(src, recon *video.Frame, out *EncodedFrame, mvs [][2]int, ft FrameType) {
	rows := e.cfg.MBRows()
	workers := e.cfg.rowWorkers(rows)
	timed := obs.Enabled()
	if timed {
		mRowWorkers.Set(int64(workers))
	}
	if workers <= 1 {
		sc := getScratch()
		for my := 0; my < rows; my++ {
			var t0 time.Time
			if timed {
				t0 = time.Now() //lint:allow walltime observability seam: times the row, never feeds the model
			}
			e.encodeRow(src, recon, out, mvs, ft, my, sc, nil)
			if timed {
				mRowEncodeSeconds.Observe(time.Since(t0).Seconds()) //lint:allow walltime observability seam: times the row, never feeds the model
			}
		}
		putScratch(sc)
		return
	}
	var rowDone []chan struct{}
	if ft != IFrame {
		cols := e.cfg.MBCols()
		rowDone = make([]chan struct{}, rows)
		for i := range rowDone {
			rowDone[i] = make(chan struct{}, cols)
		}
	}
	parallelFor(workers, rows, func(my int) {
		sc := getScratch()
		var t0 time.Time
		if timed {
			t0 = time.Now() //lint:allow walltime observability seam: times the row, never feeds the model
		}
		e.encodeRow(src, recon, out, mvs, ft, my, sc, rowDone)
		if timed {
			mRowEncodeSeconds.Observe(time.Since(t0).Seconds()) //lint:allow walltime observability seam: times the row, never feeds the model
		}
		putScratch(sc)
	})
}

// decodeRow reconstructs macroblock row my. ref is the prediction
// reference for inter rows (already resolved to a grey stand-in for a
// leading loss); conceal copies come from d.ref as in the serial path.
func (d *Decoder) decodeRow(ef *EncodedFrame, ref, out *video.Frame, my int) {
	cols := d.cfg.MBCols()
	for mx := 0; mx < cols; mx++ {
		chunk := ef.MBData[my*cols+mx]
		ok := chunk != nil
		if ok {
			r := newBitReader(chunk)
			var err error
			if ef.Type == IFrame {
				err = decodeIntraMB(r, out, mx, my, d.cfg.QI)
			} else {
				err = decodeInterMB(r, ref, out, mx, my, d.cfg)
			}
			ok = err == nil
		}
		if !ok {
			d.concealMB(out, mx, my)
		}
	}
}

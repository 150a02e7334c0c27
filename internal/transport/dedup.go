package transport

// seqWindow is a seen-packet dedup set with bounded memory: a contiguous
// floor below which every sequence counts as delivered, plus a sparse map
// of delivered sequences at or above it. Marking the floor's sequence
// compacts it away, so for an in-order stream the map stays empty no
// matter how long the session runs — the fix for the old unbounded
// seen map, and what makes per-session state affordable across
// thousands of ingest tenants.
//
// span caps how far the exact state may trail the stream head. When an
// arrival would stretch the window past span, the floor is forced up and
// everything below it is forgotten: a straggler older than span is then
// indistinguishable from a replay and treated as a duplicate, the same
// tradeoff an SRTP replay window makes. span 0 disables the cap.
//
// The zero value is a window at floor 0 with no cap; the map is made on
// the first out-of-order arrival. Not concurrency-safe; callers hold
// their own locks.
type seqWindow struct {
	floor uint64
	above map[uint64]bool
	span  uint64
}

// defaultSeqSpan keeps exact dedup state for one full 16-bit epoch behind
// the head — far wider than any NACK recovery reaches, and a hard ~64k
// bound on entries per session.
const defaultSeqSpan = 1 << 16

// Seen reports whether seq already counts as delivered. Sequences below
// the floor are implicitly seen: the floor only advances over delivered
// sequences, or over sequences abandoned by the span cap.
func (w *seqWindow) Seen(seq uint64) bool {
	return seq < w.floor || w.above[seq]
}

// Mark records seq as delivered and reports whether it already was. An
// in-order arrival (seq at the floor, nothing held above it) only moves
// the floor: no map operation.
func (w *seqWindow) Mark(seq uint64) bool {
	if seq == w.floor && len(w.above) == 0 {
		w.floor++
		return false
	}
	if w.Seen(seq) {
		return true
	}
	if w.above == nil {
		w.above = make(map[uint64]bool)
	}
	w.above[seq] = true
	w.compact()
	if w.span > 0 && seq >= w.span && seq-w.span+1 > w.floor {
		w.advance(seq - w.span + 1)
	}
	return false
}

// compact slides the floor over every contiguously delivered sequence,
// dropping the exact entries it absorbs.
func (w *seqWindow) compact() {
	for w.above[w.floor] {
		delete(w.above, w.floor)
		w.floor++
	}
}

// advance force-moves the floor to lo, forgetting exact state below it.
func (w *seqWindow) advance(lo uint64) {
	if lo <= w.floor {
		return
	}
	deleteBelow(w.above, w.floor, lo)
	w.floor = lo
	w.compact()
}

// deleteBelow deletes the keys in [from, lo) from m, which holds no key
// below from. It walks the gap or the map, whichever is shorter, so a
// huge sequence jump cannot turn one arrival into a billion-step sweep.
func deleteBelow[V any](m map[uint64]V, from, lo uint64) {
	if lo-from <= uint64(len(m)) {
		for s := from; s < lo; s++ {
			delete(m, s)
		}
		return
	}
	for s := range m {
		if s < lo {
			delete(m, s)
		}
	}
}

// Floor returns the contiguous floor: every sequence below it counts as
// delivered.
func (w *seqWindow) Floor() uint64 { return w.floor }

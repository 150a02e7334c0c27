package transport

import "testing"

func TestSeqWindowInOrderStaysEmpty(t *testing.T) {
	w := &seqWindow{}
	for seq := uint64(0); seq < 100000; seq++ {
		if w.Mark(seq) {
			t.Fatalf("seq %d misreported as duplicate", seq)
		}
	}
	if len(w.above) != 0 {
		t.Fatalf("in-order stream left %d exact entries, want 0", len(w.above))
	}
	if w.Floor() != 100000 {
		t.Fatalf("floor = %d, want 100000", w.Floor())
	}
	if !w.Seen(42) || !w.Mark(42) {
		t.Fatal("compacted sequence no longer counts as seen")
	}
}

func TestSeqWindowGapsAndDuplicates(t *testing.T) {
	w := &seqWindow{}
	for _, seq := range []uint64{0, 1, 3, 4} {
		if w.Mark(seq) {
			t.Fatalf("first delivery of %d misreported as duplicate", seq)
		}
	}
	if w.Floor() != 2 {
		t.Fatalf("floor = %d, want 2", w.Floor())
	}
	if len(w.above) != 2 {
		t.Fatalf("pending = %d, want 2 (seqs 3,4)", len(w.above))
	}
	if !w.Mark(3) {
		t.Fatal("re-delivery of 3 not flagged as duplicate")
	}
	// Filling the gap compacts everything.
	if w.Mark(2) {
		t.Fatal("first delivery of 2 misreported as duplicate")
	}
	if w.Floor() != 5 || len(w.above) != 0 {
		t.Fatalf("after gap fill: floor=%d pending=%d, want 5/0", w.Floor(), len(w.above))
	}
}

func TestSeqWindowSpanBoundsMemory(t *testing.T) {
	const span = 1024
	w := &seqWindow{span: span}
	// Only even sequences arrive: without the cap the map would hold
	// half of every sequence ever seen.
	for seq := uint64(0); seq < 100000; seq += 2 {
		w.Mark(seq)
	}
	if p := len(w.above); p > span {
		t.Fatalf("pending = %d exceeds span %d", p, span)
	}
	if want := uint64(99998 - span + 1); w.Floor() != want {
		t.Fatalf("floor = %d did not keep up with head, want %d", w.Floor(), want)
	}
	// A straggler behind the forced floor counts as a duplicate (replay
	// window semantics).
	if !w.Mark(10) {
		t.Fatal("straggler below forced floor not treated as duplicate")
	}
}

func TestSeqWindowHugeJumpIsCheap(t *testing.T) {
	w := &seqWindow{span: 4096}
	w.Mark(0)
	// A spurious jump of ~4 billion must not iterate the gap — it should
	// walk the (tiny) map instead. This completes instantly or the test
	// times out.
	w.Mark(1 << 32)
	if w.Floor() != 1<<32-4096+1 {
		t.Fatalf("floor = %d after huge jump, want %d", w.Floor(), uint64(1<<32-4096+1))
	}
	if len(w.above) != 1 {
		t.Fatalf("pending = %d, want 1", len(w.above))
	}
}

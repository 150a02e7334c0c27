package codec

import (
	"fmt"
	"sync"
)

// Zero-copy packetization. PacketizeInto forms the same slices as
// Packetize but marshals each one directly into a pooled buffer with
// caller-specified headroom in front of the payload, so the transport
// can encrypt in place, write its protocol header into the headroom, and
// hand the very same buffer to the socket — no copies and no per-packet
// allocations in steady state.
//
// Buffer ownership: PacketizeInto transfers ownership of each packet's
// backing buffer to the caller. The caller returns it with BufPool.Put
// once the bytes are on the wire (or retains it, e.g. for retransmit
// queues — retained buffers simply never rejoin the pool). Payloads of
// different packets never share a buffer.

// WirePacket is a Packet whose payload lives inside a reusable wire
// buffer, preceded by Headroom spare bytes for a protocol header.
type WirePacket struct {
	Packet
	// Headroom is the number of reserved bytes in front of the payload.
	Headroom int
	buf      *wireBuf
}

// Wire returns the buffer region spanning the headroom plus the first n
// payload bytes — the datagram a transport sends after writing its
// header into the first Headroom bytes. n may exceed the payload length
// if the caller extended the payload in place (zero-padding to the MTU);
// it must not exceed the buffer's capacity beyond the payload, which
// PacketizeInto sizes to hold at least an MTU of payload.
func (wp *WirePacket) Wire(n int) []byte {
	return wp.buf.b[:wp.Headroom+n]
}

// wireBuf wraps a wire buffer so pooled buffers move without boxing
// allocations. owner is the pool that issued the buffer (nil for the
// pool-less PacketizeInto path), so Put can refuse buffers that belong
// to a different pool instead of poisoning its free list with them.
type wireBuf struct {
	b     []byte
	owner *BufPool
}

// BufPool recycles wire buffers across frames. The zero value is not
// usable; call NewBufPool.
type BufPool struct {
	pool sync.Pool
}

// NewBufPool returns an empty wire-buffer pool.
func NewBufPool() *BufPool {
	p := &BufPool{}
	p.pool.New = func() interface{} { return &wireBuf{owner: p} }
	return p
}

func (p *BufPool) get(size int) *wireBuf {
	wb := p.pool.Get().(*wireBuf)
	if cap(wb.b) < size {
		wb.b = make([]byte, 0, size)
	}
	wb.b = wb.b[:0]
	return wb
}

// Put returns wp's backing buffer to the pool. The packet's payload (and
// anything derived from Wire) must not be used afterwards.
//
// Put trusts no caller: a nil packet, an already-released packet (double
// Put), and a buffer issued by a different pool (or by the pool-less
// PacketizeInto path) are all safe no-ops on this pool's free list. A
// foreign buffer is still detached from the packet — the caller said it
// was done with it — it just never enters a pool it did not come from.
func (p *BufPool) Put(wp *WirePacket) {
	if wp == nil || wp.buf == nil {
		return
	}
	if wp.buf.owner == p {
		p.pool.Put(wp.buf)
	}
	wp.buf = nil
	wp.Payload = nil
}

// Retain detaches wp's backing buffer from its pool: the payload (and
// anything derived from Wire) stays valid indefinitely, and the buffer
// never rejoins the free list. It is the explicit form of keeping a
// pooled buffer alive — retransmit queues and resumable-segment stores
// call it so buffer ownership is visible to the bufown analyzer (every
// Retain site carries a //lint:retain(reason) annotation).
func (wp *WirePacket) Retain() {
	if wp != nil {
		wp.buf = nil
	}
}

// PacketizeInto splits an encoded frame into the exact slices Packetize
// would form (same boundaries, byte-identical payloads), marshaling each
// into a buffer from pool with headroom spare bytes in front. Buffers
// are sized to hold at least headroom+mtu bytes so payloads can be
// zero-padded to the MTU in place. A nil pool allocates fresh buffers
// (for callers that retain payloads indefinitely). Results are appended
// to dst and returned.
func PacketizeInto(ef *EncodedFrame, mtu, headroom int, pool *BufPool, dst []WirePacket) ([]WirePacket, error) {
	sl, err := NewSlicer(ef, mtu)
	if err != nil {
		return nil, err
	}
	if headroom < 0 {
		return nil, fmt.Errorf("codec: negative headroom %d", headroom)
	}
	for sl.Next() {
		need := headroom + max(sl.Len(), mtu)
		var wb *wireBuf
		if pool != nil {
			wb = pool.get(need)
		} else {
			wb = &wireBuf{b: make([]byte, 0, need)}
		}
		wb.b = sl.Append(wb.b[:headroom])
		dst = append(dst, WirePacket{Packet: sl.packet(wb.b[headroom:]), Headroom: headroom, buf: wb})
	}
	return dst, nil
}

package transport

import (
	"repro/internal/codec"
	"repro/internal/vcrypt"
)

// opener is the receive side of the encryption policy: the cipher (nil
// for the eavesdropper) and the sender's Policy.HeaderOnlyBytes (0 =
// whole payload encrypted).
type opener struct {
	cipher  *vcrypt.Cipher
	hdrOnly int
}

// rxSession is one stream's receive state, written once for
// LiveReceiver, IngestServer and HTTPUploadServer: the dedup window, the
// reassembler and the first-delivery counters. Each receiver keeps its
// own layer around it (loss filter and NACKs, admission and rate
// limits, the HTTP resume cursor) and its own lock.
type rxSession struct {
	window seqWindow
	asm    *codec.Reassembler

	received int   // first deliveries
	usable   int   // first deliveries that decrypted and reassembled
	dups     int   // arrivals whose sequence was already delivered
	bytes    int64 // payload bytes of first deliveries
}

// reset starts the stream again at sequence floor with an empty
// reassembler. The counters carry on, so a restarted session still
// reports everything it received.
func (c *rxSession) reset(cfg codec.Config, floor uint64) error {
	asm, err := codec.NewReassembler(cfg)
	if err == nil {
		c.asm, c.window = asm, seqWindow{floor: floor, span: defaultSeqSpan}
	}
	return err
}

// deliver runs the receive step for one arrival under the extended
// sequence seq. payload is decrypted in place; Reassembler.Add copies
// what it keeps, so the caller may reuse the buffer at once. first is
// false for a duplicate, which is counted and otherwise ignored; usable
// reports whether a first delivery reached the reassembler intact.
func (c *rxSession) deliver(o opener, seq uint64, encrypted bool, payload []byte) (first, usable bool) {
	if c.window.Mark(seq) {
		c.dups++
		return false, false
	}
	c.received++
	c.bytes += int64(len(payload))
	if encrypted {
		if o.cipher == nil {
			return true, false // no key: an erasure
		}
		span := len(payload)
		if o.hdrOnly > 0 && o.hdrOnly < span {
			span = o.hdrOnly
		}
		o.cipher.DecryptPacket(seq, payload[:span])
	}
	if c.asm.Add(payload) != nil {
		return true, false
	}
	c.usable++
	return true, true
}

// Package transport holds the sanctioned shapes: encryption before the
// write, explicit policy decisions on every plaintext path, and one
// documented suppression. The pass must stay silent on all of them.
package transport

import (
	"context"
	"io"
	"net"
	"net/http"

	"repro/internal/codec"
	"repro/internal/rtp"
	"repro/internal/vcrypt"
)

// SendEncrypted is the canonical correct path: every payload passes
// through the cipher before the socket.
func SendEncrypted(conn net.Conn, c *vcrypt.Cipher, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	for i, p := range pkts {
		c.EncryptPacket(uint64(i), p.Payload)
		if _, err := conn.Write(p.Payload); err != nil {
			return err
		}
	}
	return nil
}

// SendSelective is the paper's I-frame-only ladder: the selector
// blesses the plaintext arm, the cipher covers the other.
func SendSelective(conn net.Conn, c *vcrypt.Cipher, sel *vcrypt.Selector, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	for i, p := range pkts {
		if sel.ShouldEncrypt(p.Type == codec.IFrame) {
			c.EncryptPacket(uint64(i), p.Payload)
		}
		if _, err := conn.Write(p.Payload); err != nil {
			return err
		}
	}
	return nil
}

// SendDowngraded walks the downgrade ladder correctly: when the policy
// lands on ModeNone the plaintext send is an explicit decision, every
// other mode encrypts first.
func SendDowngraded(conn net.Conn, c *vcrypt.Cipher, pol vcrypt.Policy, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	for i, p := range pkts {
		if pol.Mode == vcrypt.ModeNone {
			if _, err := conn.Write(p.Payload); err != nil {
				return err
			}
			continue
		}
		c.EncryptPacket(uint64(i), p.Payload)
		if _, err := conn.Write(p.Payload); err != nil {
			return err
		}
	}
	return nil
}

// SendHeaderOnly writes a locally built header in the clear — headers
// carry no payload bytes — then the encrypted body.
func SendHeaderOnly(conn net.Conn, c *vcrypt.Cipher, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	for i, p := range pkts {
		hdr := []byte{0x80, byte(i)}
		if _, err := conn.Write(hdr); err != nil {
			return err
		}
		c.EncryptPacket(uint64(i), p.Payload)
		if _, err := conn.Write(p.Payload); err != nil {
			return err
		}
	}
	return nil
}

// Forward relays a packet whose header records the encryption
// decision: the Encrypted guard blesses the plaintext branch, and the
// ciphertext branch runs the payload through the cipher before the
// wire.
func Forward(conn net.Conn, c *vcrypt.Cipher, pkt rtp.Packet, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	pkt.Payload = pkts[0].Payload
	if !pkt.Encrypted() {
		// The wire header says this packet travels in the clear: the
		// policy decision was made upstream and recorded on the packet.
		_, err := conn.Write(pkt.Payload)
		return err
	}
	c.EncryptPacket(0, pkt.Payload)
	_, err = conn.Write(pkt.Payload)
	return err
}

// Replay retransmits captured plaintext on purpose; the suppression
// documents why this is not a leak.
func Replay(conn net.Conn, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	//lint:allow plainleak lab replay tool retransmits captured plaintext by design; no user payload involved
	_, err = conn.Write(pkts[0].Payload)
	return err
}

// SendZeroCopy is the zero-copy hot path: the protocol header is
// written into the wire buffer's headroom, the payload region is
// encrypted in place, and the single buffer reaches the socket.
func SendZeroCopy(conn net.Conn, c *vcrypt.Cipher, frame []byte) error {
	wps, err := codec.PacketizeInto(frame, 1200, 2)
	if err != nil {
		return err
	}
	for i := range wps {
		pkt := &wps[i]
		out := pkt.Wire(len(pkt.Payload))
		out[0], out[1] = 0x80, byte(i)
		c.EncryptPacket(uint64(i), out[2:])
		if _, err := conn.Write(out); err != nil {
			return err
		}
	}
	return nil
}

// SendBatch encrypts a whole frame's payloads with one batch call
// before any of them reaches the wire.
func SendBatch(conn net.Conn, c *vcrypt.Cipher, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	payloads := make([][]byte, 0, len(pkts))
	for _, p := range pkts {
		payloads = append(payloads, p.Payload)
	}
	c.EncryptPackets(0, payloads)
	for _, p := range payloads {
		if _, err := conn.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// segmentReader is an upload body that reads stored segments back to
// back.
type segmentReader struct {
	segs [][]byte
	off  int
}

func (r *segmentReader) Read(p []byte) (int, error) {
	if len(r.segs) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.segs[0][r.off:])
	if r.off += n; r.off == len(r.segs[0]) {
		r.segs, r.off = r.segs[1:], 0
	}
	return n, nil
}

// postSegments hands stored segments to a request body.
func postSegments(url string, segs [][]byte) error {
	_, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, &segmentReader{segs: segs})
	return err
}

// PostStored is the resumable upload's shape: each payload is
// encrypted where it is stored (or left plain on the selector's say-so)
// before the store becomes a request body.
func PostStored(url string, c *vcrypt.Cipher, sel *vcrypt.Selector, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	var segs [][]byte
	for i, p := range pkts {
		seg := append([]byte(nil), p.Payload...)
		if sel.ShouldEncrypt(p.Type == codec.IFrame) {
			c.EncryptPacket(uint64(i), seg)
		}
		segs = append(segs, seg)
	}
	if err := postSegments(url, segs); err != nil {
		return err
	}
	// A request without a body carries nothing.
	_, err = http.NewRequest(http.MethodGet, url, nil)
	return err
}

// PostChunked is the segment store's shape: each slice is marshaled
// straight into a store chunk behind its header and its payload is
// encrypted there in place (or left plain on the selector's say-so)
// before the store becomes a request body.
func PostChunked(url string, c *vcrypt.Cipher, sel *vcrypt.Selector, frame []byte) error {
	sl, err := codec.NewSlicer(frame, 1200)
	if err != nil {
		return err
	}
	chunk := make([]byte, 0, 1<<16)
	var segs [][]byte
	for seq := uint64(0); sl.Next(); seq++ {
		encrypted := sel.ShouldEncrypt(true)
		off := len(chunk)
		chunk = sl.Append(chunk[:off+2])
		seg := chunk[off:len(chunk):len(chunk)]
		seg[0], seg[1] = 0, byte(seq)
		if encrypted {
			c.EncryptPacket(seq, seg[2:])
		}
		segs = append(segs, seg)
	}
	return postSegments(url, segs)
}

// Package transport holds the flagged shapes: every function below
// leaks a packetized payload to a network write on some path.
package transport

import (
	"context"
	"io"
	"net"
	"net/http"

	"repro/internal/buffer"
	"repro/internal/codec"
	"repro/internal/vcrypt"
)

// SendRaw forgets encryption entirely.
func SendRaw(conn net.Conn, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	for _, p := range pkts {
		if _, err := conn.Write(p.Payload); err != nil { // want `plaintext packet payload reaches net\.Conn\.Write`
			return err
		}
	}
	return nil
}

// SendDowngraded drops to plaintext when the policy says ModeNone — the
// blessed arm is fine — but the encrypting arm of the ladder forgets
// the cipher call, so ciphertext-mode packets leave in the clear.
func SendDowngraded(conn net.Conn, pol vcrypt.Policy, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	for _, p := range pkts {
		if pol.Mode == vcrypt.ModeNone {
			if _, err := conn.Write(p.Payload); err != nil { // policy-sanctioned plaintext
				return err
			}
			continue
		}
		if _, err := conn.Write(p.Payload); err != nil { // want `plaintext packet payload reaches net\.Conn\.Write`
			return err
		}
	}
	return nil
}

// SendGuarded consults the selector but never encrypts on the encrypt
// arm: the guard's false edge is blessed, the true edge still carries
// taint to the write below the merge.
func SendGuarded(conn net.Conn, sel *vcrypt.Selector, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	for _, p := range pkts {
		if sel.ShouldEncrypt(p.Type == codec.IFrame) {
			_ = p // forgot vcrypt.Cipher.EncryptPacket here
		}
		if _, err := conn.Write(p.Payload); err != nil { // want `plaintext packet payload reaches net\.Conn\.Write`
			return err
		}
	}
	return nil
}

// SendBuffered leaks through a helper in another package: the write is
// inside buffer.Flush, the finding lands at this call site.
func SendBuffered(conn net.Conn, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	for _, p := range pkts {
		if err := buffer.Flush(conn, p.Payload); err != nil { // want `plaintext packet payload reaches a network write inside Flush`
			return err
		}
	}
	return nil
}

// SendZeroCopyRaw marshals into the wire buffer but forgets the
// in-place encryption before the socket.
func SendZeroCopyRaw(conn net.Conn, frame []byte) error {
	wps, err := codec.PacketizeInto(frame, 1200, 2)
	if err != nil {
		return err
	}
	for i := range wps {
		pkt := &wps[i]
		out := pkt.Wire(len(pkt.Payload))
		out[0], out[1] = 0x80, byte(i)
		if _, err := conn.Write(out); err != nil { // want `plaintext packet payload reaches net\.Conn\.Write`
			return err
		}
	}
	return nil
}

// SendBatchLate stages a batch for EncryptPackets but writes the
// payloads before the batch call runs, so plaintext hits the wire.
func SendBatchLate(conn net.Conn, c *vcrypt.Cipher, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	payloads := make([][]byte, 0, len(pkts))
	for _, p := range pkts {
		payloads = append(payloads, p.Payload)
	}
	for _, p := range payloads {
		if _, err := conn.Write(p); err != nil { // want `plaintext packet payload reaches net\.Conn\.Write`
			return err
		}
	}
	c.EncryptPackets(0, payloads)
	return nil
}

// segmentReader is an upload body that reads stored segments back to
// back; its fields carry whatever the segments carry.
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

// PostStored stores the payloads for an upload but never encrypts
// them: the request body reads plaintext onto the connection.
func PostStored(url string, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	var segs [][]byte
	for _, p := range pkts {
		segs = append(segs, p.Payload)
	}
	body := &segmentReader{segs: segs}
	_, err = http.NewRequestWithContext(context.Background(), http.MethodPost, url, body) // want `plaintext packet payload reaches http\.NewRequestWithContext body`
	return err
}

// postSegments hands its segments to a request body; the finding lands
// where a caller supplies plaintext.
func postSegments(url string, segs [][]byte) error {
	_, err := http.NewRequest(http.MethodPost, url, &segmentReader{segs: segs})
	return err
}

// PostGuarded asks the selector, but the encrypt arm forgets the
// cipher, so selected packets reach the upload body in the clear.
func PostGuarded(url string, sel *vcrypt.Selector, frame []byte) error {
	pkts, err := codec.Packetize(frame, 1200)
	if err != nil {
		return err
	}
	var segs [][]byte
	for _, p := range pkts {
		if sel.ShouldEncrypt(p.Type == codec.IFrame) {
			_ = p // forgot vcrypt.Cipher.EncryptPacket here
		}
		segs = append(segs, p.Payload)
	}
	return postSegments(url, segs) // want `plaintext packet payload reaches a network write inside postSegments`
}

// PostChunked marshals each slice straight into a store chunk behind a
// two-byte header, as the segment store does, but the encrypt arm
// forgets the cipher, so selected payloads reach the body in the clear.
func PostChunked(url string, sel *vcrypt.Selector, frame []byte) error {
	sl, err := codec.NewSlicer(frame, 1200)
	if err != nil {
		return err
	}
	chunk := make([]byte, 0, 1<<16)
	var segs [][]byte
	for sl.Next() {
		encrypted := sel.ShouldEncrypt(true)
		off := len(chunk)
		chunk = sl.Append(chunk[:off+2])
		seg := chunk[off:len(chunk):len(chunk)]
		seg[0], seg[1] = 0, 1
		if encrypted {
			_ = seg // forgot vcrypt.Cipher.EncryptPacket here
		}
		segs = append(segs, seg)
	}
	return postSegments(url, segs) // want `plaintext packet payload reaches a network write inside postSegments`
}

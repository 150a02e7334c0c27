// Package codec is the miniature packetizer of the plainleak fixtures:
// Packetize is the taint source, exactly as in the real module.
package codec

// FrameType distinguishes the two slice classes.
type FrameType int

const (
	IFrame FrameType = iota
	PFrame
)

// Packet is one network-ready slice of an encoded frame.
type Packet struct {
	Type    FrameType
	Payload []byte
}

// Packetize splits an encoded frame into slice packets.
func Packetize(frame []byte, mtu int) ([]Packet, error) {
	return []Packet{{Type: IFrame, Payload: frame}}, nil
}

// WirePacket is a Packet marshaled into a reusable wire buffer with
// protocol headroom in front of the payload.
type WirePacket struct {
	Packet
	Headroom int
	buf      []byte
}

// Wire returns the headroom plus the first n payload bytes.
func (wp *WirePacket) Wire(n int) []byte { return wp.buf[:wp.Headroom+n] }

// PacketizeInto marshals slices into buffers with headroom; like the
// real zero-copy packetizer, it is a taint source.
func PacketizeInto(frame []byte, mtu, headroom int) ([]WirePacket, error) {
	buf := make([]byte, headroom+len(frame))
	copy(buf[headroom:], frame)
	return []WirePacket{{Packet: Packet{Type: IFrame, Payload: buf[headroom:]}, Headroom: headroom, buf: buf}}, nil
}

// Slicer walks a frame's slices; Append marshals the current one into
// the caller's buffer and, like the real one, is a taint source.
type Slicer struct {
	frame []byte
	done  bool
}

// NewSlicer returns a Slicer over frame's slices.
func NewSlicer(frame []byte, mtu int) (Slicer, error) { return Slicer{frame: frame}, nil }

// Next advances to the next slice and reports whether there is one.
func (s *Slicer) Next() bool {
	more := !s.done
	s.done = true
	return more
}

// Append appends the current slice's payload to dst.
func (s *Slicer) Append(dst []byte) []byte { return append(dst, s.frame...) }

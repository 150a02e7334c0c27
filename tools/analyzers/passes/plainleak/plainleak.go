// Package plainleak is the paper's core invariant as a dataflow check:
// every packet payload the encryption policy selects must be ciphertext
// by the time it reaches a network write. Payloads are tainted where
// they are created (codec.Packetize, PacketizeInto, Slicer.Append,
// audio.Encode); the taint is cleared in exactly two ways — the payload
// passes through vcrypt.Cipher.EncryptPacket, or control flow crosses an
// edge on which the policy itself decided "do not encrypt this packet"
// (Selector.ShouldEncrypt false, Policy.Mode == ModeNone, or an rtp
// header marking the packet unencrypted). Any tainted value reaching
// net.Conn / UDP / io.Writer / HTTP-body writes (or handed to an HTTP
// request as its body) in the transport and netem layers is a leak. The
// analysis is flow-sensitive and interprocedural (bottom-up summaries
// over the module call graph), so a payload that is packetized in one
// function, buffered in a second, and written in a third is still
// tracked.
package plainleak

import (
	"repro/tools/analyzers/lintkit"
)

// DefaultPackages is where network sinks live; the taint engine itself
// follows payloads through every module package via summaries.
var DefaultPackages = []string{
	"internal/transport",
	"internal/netem",
}

var spec = &lintkit.TaintSpec{
	Sources: []lintkit.FuncMatch{
		{Path: "internal/codec", Name: "Packetize"},
		{Path: "internal/codec", Name: "PacketizeInto"},
		// Slicer.Append marshals a slice into the caller's buffer: the
		// HTTP segment store's packetizer.
		{Path: "internal/codec", Recv: "Slicer", Name: "Append"},
		{Path: "internal/audio", Name: "Encode"},
	},
	Sanitizers: []lintkit.SanitizerSpec{
		// cipher.EncryptPacket(seq, payload[:span]) encrypts the
		// backing array in place: position 0 is the receiver, 1 the
		// sequence number, 2 the payload.
		{Match: lintkit.FuncMatch{Path: "internal/vcrypt", Recv: "Cipher", Name: "EncryptPacket"}, Arg: 2},
		// cipher.EncryptPackets(baseSeq, payloads) is the batch form:
		// position 2 is the [][]byte whose members are encrypted in
		// place.
		{Match: lintkit.FuncMatch{Path: "internal/vcrypt", Recv: "Cipher", Name: "EncryptPackets"}, Arg: 2},
	},
	Sinks: []lintkit.SinkSpec{
		{Match: lintkit.FuncMatch{Path: "net", Recv: "Conn", Name: "Write"}, Args: []int{1}, What: "net.Conn.Write"},
		// *net.UDPConn/TCPConn promote Write from the unexported
		// embedded net.conn; the resolved method's receiver is that
		// type, not the exported wrapper.
		{Match: lintkit.FuncMatch{Path: "net", Recv: "conn", Name: "Write"}, Args: []int{1}, What: "net.Conn.Write"},
		{Match: lintkit.FuncMatch{Path: "net", Recv: "UDPConn", Name: "Write"}, Args: []int{1}, What: "net.UDPConn.Write"},
		{Match: lintkit.FuncMatch{Path: "net", Recv: "UDPConn", Name: "WriteToUDP"}, Args: []int{1}, What: "net.UDPConn.WriteToUDP"},
		{Match: lintkit.FuncMatch{Path: "net", Recv: "UDPConn", Name: "WriteTo"}, Args: []int{1}, What: "net.UDPConn.WriteTo"},
		{Match: lintkit.FuncMatch{Path: "net", Recv: "TCPConn", Name: "Write"}, Args: []int{1}, What: "net.TCPConn.Write"},
		{Match: lintkit.FuncMatch{Path: "io", Recv: "Writer", Name: "Write"}, Args: []int{1}, What: "io.Writer.Write"},
		{Match: lintkit.FuncMatch{Path: "io", Recv: "PipeWriter", Name: "Write"}, Args: []int{1}, What: "io.PipeWriter.Write"},
		{Match: lintkit.FuncMatch{Path: "net/http", Recv: "ResponseWriter", Name: "Write"}, Args: []int{1}, What: "http.ResponseWriter.Write"},
		// A request body is a reader the transport drains onto the
		// connection: the body argument is the sink, and taint held in
		// the reader's fields (segments stored for an upload) reaches it
		// with the reader.
		{Match: lintkit.FuncMatch{Path: "net/http", Name: "NewRequest"}, Args: []int{2}, What: "http.NewRequest body"},
		{Match: lintkit.FuncMatch{Path: "net/http", Name: "NewRequestWithContext"}, Args: []int{3}, What: "http.NewRequestWithContext body"},
	},
	PolicyGuards: []lintkit.FuncMatch{
		{Path: "internal/vcrypt", Recv: "Selector", Name: "ShouldEncrypt"},
		{Path: "internal/rtp", Recv: "Packet", Name: "Encrypted"},
	},
	PolicyClearConsts: []lintkit.ConstMatch{
		{Path: "internal/vcrypt", Name: "ModeNone"},
	},
	SinkMessage: func(what string) string {
		return "plaintext packet payload reaches " + what +
			" without vcrypt encryption or an explicit policy decision"
	},
}

// Analyzer is the plainleak pass.
var Analyzer = &lintkit.Analyzer{
	Name: "plainleak",
	Doc: "Taint-tracks packet payloads from their creation in the codec " +
		"and audio packetizers to the network writes of the transport " +
		"and netem layers, and reports any payload that arrives at a " +
		"socket neither encrypted by vcrypt.Cipher.EncryptPacket nor " +
		"blessed by an explicit policy decision to send plaintext. This " +
		"is the paper's selective-encryption invariant checked statically.",
	Packages: DefaultPackages,
	Run:      run,
}

func run(pass *lintkit.Pass) error {
	if pass.Prog == nil {
		return nil
	}
	lintkit.NewTaintEngine(pass.Prog, spec).Check(pass)
	return nil
}

// Package vcrypt implements the encryption side of the paper: the three
// symmetric algorithms of Table 1 (AES-128, AES-256, 3DES) in Output
// Feedback mode, applied per packet so that a lost or corrupted packet
// never propagates errors into other packets (Section 5), and the
// encryption policies — which packets of a video flow get encrypted —
// whose delay/distortion/energy trade-off the paper quantifies.
//
// The per-packet hot path is allocation-free: IV derivation reuses a
// cached HMAC state, the keystream is generated inline into per-cipher
// pooled scratch (byte-identical to crypto/cipher's OFB/CTR streams),
// and payloads are XORed in place. Keystreams depend only on the packet
// sequence, so they can also be precomputed ahead of the send schedule
// (Prefetch) and consumed with a single XOR pass.
package vcrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/des"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
)

// Algorithm selects the symmetric cipher of a policy.
type Algorithm int

// The algorithms evaluated in the paper (Table 1), plus the counter-mode
// variants added for the fast-cipher re-sweep. OFB remains the paper's
// mode (and the default everywhere); CTR produces a different keystream
// from the same per-packet IV but has the same erasure semantics — a
// lost packet never damages its neighbours — and pipelines better on
// wide cores because keystream blocks are independent.
const (
	AES128 Algorithm = iota
	AES256
	TripleDES
	AES128CTR
	AES256CTR
)

// String names the algorithm as in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case AES128:
		return "AES128"
	case AES256:
		return "AES256"
	case TripleDES:
		return "3DES"
	case AES128CTR:
		return "AES128-CTR"
	case AES256CTR:
		return "AES256-CTR"
	default:
		return "unknown"
	}
}

// KeySize returns the key length in bytes.
func (a Algorithm) KeySize() int {
	switch a {
	case AES128, AES128CTR:
		return 16
	case AES256, AES256CTR:
		return 32
	case TripleDES:
		return 24
	default:
		return 0
	}
}

// counterMode reports whether the algorithm runs its block cipher in CTR
// rather than OFB mode.
func (a Algorithm) counterMode() bool {
	return a == AES128CTR || a == AES256CTR
}

// maxBlockSize is the largest block size across the supported ciphers
// (AES, 16 bytes; 3DES uses 8), sizing the fixed keystream scratch.
const maxBlockSize = aes.BlockSize

// Cipher encrypts and decrypts packet payloads under one pre-established
// symmetric key (the paper assumes key agreement happened a priori,
// Section 3). Each packet is processed in OFB (or CTR) mode under a
// per-packet IV derived from the packet sequence number, so packets are
// independently decryptable and errors do not propagate across packets.
//
// Cipher is safe for concurrent use: mutable per-packet state lives in
// pooled scratch, never in the Cipher itself.
type Cipher struct {
	alg   Algorithm
	block cipher.Block
	// ivKey keys the IV derivation PRF so IVs are not predictable from
	// sequence numbers alone.
	ivKey []byte

	// scratch pools the per-packet mutable state (cached HMAC, keystream
	// block) so the steady-state encrypt path never allocates.
	scratch sync.Pool

	// pre, when non-nil, is the prefetched-keystream cache consumed by
	// EncryptPacket before falling back to inline generation.
	pre atomic.Pointer[prefetchCache]
}

// cipherScratch is the mutable per-packet state: the resettable HMAC used
// for IV derivation (no per-packet hmac.New), its output buffer, and the
// keystream/counter blocks of the inline OFB/CTR generator.
type cipherScratch struct {
	mac hash.Hash
	seq [8]byte
	sum [sha256.Size]byte
	ks  [maxBlockSize]byte
	ctr [maxBlockSize]byte
}

// NewCipher builds a Cipher for the algorithm and key. The key must have
// exactly alg.KeySize() bytes.
func NewCipher(alg Algorithm, key []byte) (*Cipher, error) {
	if len(key) != alg.KeySize() {
		return nil, fmt.Errorf("vcrypt: %v needs a %d-byte key, got %d", alg, alg.KeySize(), len(key))
	}
	var block cipher.Block
	var err error
	switch alg {
	case AES128, AES256, AES128CTR, AES256CTR:
		block, err = aes.NewCipher(key)
	case TripleDES:
		block, err = des.NewTripleDESCipher(key)
	default:
		return nil, fmt.Errorf("vcrypt: unknown algorithm %d", alg)
	}
	if err != nil {
		return nil, err
	}
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte("thriftyvid-iv"))
	c := &Cipher{alg: alg, block: block, ivKey: mac.Sum(nil)}
	c.scratch.New = func() interface{} {
		return &cipherScratch{mac: hmac.New(sha256.New, c.ivKey)}
	}
	return c, nil
}

// Algorithm returns the cipher's algorithm.
func (c *Cipher) Algorithm() Algorithm { return c.alg }

// deriveIV computes the per-packet IV for a sequence number into the
// scratch's sum buffer and returns the block-size prefix. The HMAC state
// is cached and reset rather than rebuilt, which removes the dominant
// allocation of the old per-packet path.
func (c *Cipher) deriveIV(s *cipherScratch, seq uint64) []byte {
	s.mac.Reset()
	binary.BigEndian.PutUint64(s.seq[:], seq)
	s.mac.Write(s.seq[:])
	sum := s.mac.Sum(s.sum[:0])
	return sum[:c.block.BlockSize()]
}

// xorKeystream XORs the packet keystream for seq over payload in place.
// The OFB branch is byte-identical to crypto/cipher.NewOFB over the same
// block and IV (keystream blocks E(IV), E(E(IV)), ...); the CTR branch to
// crypto/cipher.NewCTR (E(IV), E(IV+1), ... with big-endian wraparound).
func (c *Cipher) xorKeystream(s *cipherScratch, seq uint64, payload []byte) {
	iv := c.deriveIV(s, seq)
	bs := c.block.BlockSize()
	if c.alg.counterMode() {
		copy(s.ctr[:bs], iv)
		for off := 0; off < len(payload); off += bs {
			c.block.Encrypt(s.ks[:bs], s.ctr[:bs])
			for i := bs - 1; i >= 0; i-- {
				s.ctr[i]++
				if s.ctr[i] != 0 {
					break
				}
			}
			n := len(payload) - off
			if n > bs {
				n = bs
			}
			subtle.XORBytes(payload[off:off+n], payload[off:off+n], s.ks[:n])
		}
		return
	}
	copy(s.ks[:bs], iv)
	for off := 0; off < len(payload); off += bs {
		c.block.Encrypt(s.ks[:bs], s.ks[:bs])
		n := len(payload) - off
		if n > bs {
			n = bs
		}
		subtle.XORBytes(payload[off:off+n], payload[off:off+n], s.ks[:n])
	}
}

// keystreamInto fills dst with the raw keystream for seq (what
// xorKeystream would XOR over a payload of len(dst) bytes).
func (c *Cipher) keystreamInto(s *cipherScratch, seq uint64, dst []byte) {
	for i := range dst {
		dst[i] = 0
	}
	c.xorKeystream(s, seq, dst)
}

// EncryptPacket encrypts payload in place using the per-packet keystream
// keyed by the packet sequence number. OFB and CTR keystream modes are
// involutions: decrypting is the same operation, which DecryptPacket
// makes explicit. The steady-state path performs zero heap allocations.
func (c *Cipher) EncryptPacket(seq uint64, payload []byte) {
	if pc := c.pre.Load(); pc != nil {
		if pc.consume(seq, payload) {
			return
		}
	}
	s := c.scratch.Get().(*cipherScratch)
	c.xorKeystream(s, seq, payload)
	c.scratch.Put(s)
}

// EncryptPackets encrypts a batch of packets in place, payloads[i] under
// sequence baseSeq+i. One scratch acquisition serves the whole batch, so
// it is the preferred form for the packetize-encrypt-send hot loop.
func (c *Cipher) EncryptPackets(baseSeq uint64, payloads [][]byte) {
	s := c.scratch.Get().(*cipherScratch)
	for i, p := range payloads {
		c.xorKeystream(s, baseSeq+uint64(i), p)
	}
	c.scratch.Put(s)
}

// DecryptPacket reverses EncryptPacket.
func (c *Cipher) DecryptPacket(seq uint64, payload []byte) {
	c.EncryptPacket(seq, payload)
}

// prefetchCache holds keystreams computed ahead of the send schedule.
// Entries are consumed (removed) on use; stale entries are swept once the
// cache exceeds its cap, so a seq that is never encrypted (the policy
// skipped it) cannot grow the cache without bound.
type prefetchCache struct {
	mu  sync.Mutex
	ks  map[uint64]*ksBuf
	buf sync.Pool // *ksBuf; pooling the pointer avoids boxing allocations
}

// ksBuf wraps a keystream buffer so it can move between the cache map and
// the free pool without allocating a slice-header box on every transfer.
type ksBuf struct {
	b []byte
}

// prefetchCap bounds the number of cached keystreams.
const prefetchCap = 4096

func (pc *prefetchCache) consume(seq uint64, payload []byte) bool {
	pc.mu.Lock()
	ks, ok := pc.ks[seq]
	if ok {
		delete(pc.ks, seq)
	}
	pc.mu.Unlock()
	if !ok {
		return false
	}
	if len(ks.b) < len(payload) {
		pc.buf.Put(ks)
		return false
	}
	subtle.XORBytes(payload, payload, ks.b[:len(payload)])
	pc.buf.Put(ks)
	return true
}

func (pc *prefetchCache) store(seq uint64, ks *ksBuf) {
	pc.mu.Lock()
	if len(pc.ks) >= prefetchCap {
		// Sweep arbitrary stale entries; correctness never depends on a
		// hit, only speed does.
		for k := range pc.ks {
			delete(pc.ks, k)
			if len(pc.ks) < prefetchCap/2 {
				break
			}
		}
	}
	pc.ks[seq] = ks
	pc.mu.Unlock()
}

// Prefetch computes the keystreams for packets [baseSeq, baseSeq+count)
// of up to size bytes each and caches them for EncryptPacket to consume
// with a single XOR pass. It runs synchronously; callers overlap it with
// other work. No live sender calls it: the paced UDP senders encrypt each
// frame inline before sleeping until it is due, which keeps crypto off
// the release path without a prefetch goroutine or keystream for
// packets the policy leaves plain. The benchmark's replay trace and
// BenchmarkEncryptPacketPrefetched still use it. Prefetching is purely
// an optimisation: output bytes are identical whether a packet's
// keystream was prefetched or generated inline, and a miss (size too
// small, entry swept) falls back to the inline path.
func (c *Cipher) Prefetch(baseSeq uint64, count, size int) {
	if count <= 0 || size <= 0 {
		return
	}
	pc := c.pre.Load()
	if pc == nil {
		pc = &prefetchCache{ks: make(map[uint64]*ksBuf)}
		pc.buf.New = func() interface{} { return &ksBuf{b: make([]byte, 0, size)} }
		if !c.pre.CompareAndSwap(nil, pc) {
			pc = c.pre.Load()
		}
	}
	s := c.scratch.Get().(*cipherScratch)
	for i := 0; i < count; i++ {
		ks := pc.buf.Get().(*ksBuf)
		if cap(ks.b) < size {
			ks.b = make([]byte, 0, size)
		}
		ks.b = ks.b[:size]
		c.keystreamInto(s, baseSeq+uint64(i), ks.b)
		pc.store(baseSeq+uint64(i), ks)
	}
	c.scratch.Put(s)
}

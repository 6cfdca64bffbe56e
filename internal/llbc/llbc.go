// Package llbc implements the Low-Latency Block Cipher used by DAPPER to
// randomize row-to-group mappings (paper §V-B). Like CEASER and CUBE, it
// is a short balanced Feistel network over an n-bit address space with
// per-round keys generated from a seed and refreshed periodically (every
// tREFW for DAPPER-H, every treset for DAPPER-S).
//
// The cipher is a bijection over [0, 2^n): Encrypt maps an original row
// address to a hashed address and Decrypt inverts it, which DAPPER needs
// to recover the member rows of a row group during mitigation. Odd widths
// are handled with cycle-walking, the standard format-preserving
// technique: encrypt over the next even width and re-encrypt until the
// result falls back inside the domain. Bijectivity over the wider domain
// guarantees bijectivity of the walked cipher over the narrower one.
package llbc

import "fmt"

// Rounds is the number of Feistel rounds. The paper uses a four-round
// low-latency cipher (§V-B), enough to decorrelate mappings between key
// refreshes while staying within a single memory-controller cycle in
// hardware.
const Rounds = 4

// Cipher is a keyed bijection over [0, 2^Bits). The zero value is not
// usable; construct with New.
type Cipher struct {
	bits     int            // external domain width
	halfBits int            // width of each Feistel half (internal domain = 2*halfBits)
	keys     [Rounds]uint32 // round keys (the paper's four 16-bit registers)
	halfMask uint32
	domain   uint64 // 1 << bits
}

// New returns a cipher over [0, 2^bits) keyed from seed. bits must be in
// [2, 62]. Different seeds give different, uncorrelated mappings; the
// same seed always gives the same mapping (needed so encrypt/decrypt
// agree across components).
func New(bits int, seed uint64) (*Cipher, error) {
	if bits < 2 || bits > 62 {
		return nil, fmt.Errorf("llbc: bits %d out of range [2,62]", bits)
	}
	c := &Cipher{
		bits:     bits,
		halfBits: (bits + 1) / 2,
		domain:   1 << uint(bits),
	}
	c.halfMask = uint32(1<<uint(c.halfBits)) - 1
	c.Rekey(seed)
	return c, nil
}

// MustNew is New but panics on invalid width. Use it for compile-time
// constant widths.
func MustNew(bits int, seed uint64) *Cipher {
	c, err := New(bits, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// Bits returns the external domain width in bits.
func (c *Cipher) Bits() int { return c.bits }

// Domain returns the external domain size 2^Bits.
func (c *Cipher) Domain() uint64 { return c.domain }

// Keys returns the current round keys. Two ciphers of equal width and
// keys are the same bijection, so the keys can name a mapping in a memo.
func (c *Cipher) Keys() [Rounds]uint32 { return c.keys }

// Rekey replaces all round keys from seed. DAPPER-S calls this every
// treset; DAPPER-H calls it every tREFW (§V-B, §VI-B).
func (c *Cipher) Rekey(seed uint64) {
	s := seed
	for i := range c.keys {
		s = splitmix64(s)
		c.keys[i] = uint32(s) ^ uint32(s>>32)
	}
}

// Encrypt maps x in [0, 2^Bits) to its hashed address. It panics if x is
// out of domain: callers always derive x from a row index that is in
// range by construction, so an out-of-range value is a programming error.
func (c *Cipher) Encrypt(x uint64) uint64 {
	if x >= c.domain {
		panic(fmt.Sprintf("llbc: Encrypt(%d) out of domain %d", x, c.domain))
	}
	y := c.encryptWide(x)
	// Cycle-walk back into the external domain (at most a few steps:
	// the wide domain is < 2x the external one).
	for y >= c.domain {
		y = c.encryptWide(y)
	}
	return y
}

// Decrypt inverts Encrypt.
func (c *Cipher) Decrypt(y uint64) uint64 {
	if y >= c.domain {
		panic(fmt.Sprintf("llbc: Decrypt(%d) out of domain %d", y, c.domain))
	}
	x := c.decryptWide(y)
	for x >= c.domain {
		x = c.decryptWide(x)
	}
	return x
}

// encryptWide runs the balanced Feistel network over the internal
// (2*halfBits)-wide domain.
func (c *Cipher) encryptWide(x uint64) uint64 {
	l := uint32(x>>uint(c.halfBits)) & c.halfMask
	r := uint32(x) & c.halfMask
	for i := 0; i < Rounds; i++ {
		l, r = r, (l^c.round(r, c.keys[i]))&c.halfMask
	}
	return uint64(l)<<uint(c.halfBits) | uint64(r)
}

// decryptWide inverts encryptWide by running rounds in reverse.
func (c *Cipher) decryptWide(y uint64) uint64 {
	l := uint32(y>>uint(c.halfBits)) & c.halfMask
	r := uint32(y) & c.halfMask
	for i := Rounds - 1; i >= 0; i-- {
		l, r = (r^c.round(l, c.keys[i]))&c.halfMask, l
	}
	return uint64(l)<<uint(c.halfBits) | uint64(r)
}

// round is the Feistel round function: a cheap multiply-xor-shift mix,
// standing in for the combinational logic of a hardware LLBC such as
// SCARF. It only needs to be key-dependent and well-mixing, not
// cryptographically strong, mirroring the paper's threat model (mappings
// are refreshed before they can be brute-forced).
func (c *Cipher) round(x, k uint32) uint32 {
	v := x ^ k
	v *= 0x9E3779B1 // golden-ratio odd constant
	v ^= v >> 15
	v *= 0x85EBCA77
	v ^= v >> 13
	return v & c.halfMask
}

// splitmix64 is the SplitMix64 sequence step, used as the key-schedule
// PRNG (the paper allows any PRNG/TRNG, §V-B).
func splitmix64(s uint64) uint64 {
	s += 0x9E3779B97F4A7C15
	z := s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// KeyStream returns n deterministic 64-bit values derived from seed.
// Shared helper for components that need reproducible randomness with
// the same generator as the cipher key schedule.
func KeyStream(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	s := seed
	for i := range out {
		s = splitmix64(s)
		out[i] = s
	}
	return out
}

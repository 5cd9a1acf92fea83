// Package snap is the stable binary encoding layer under the simulator's
// checkpoint/restore machinery. Every stateful component (sim engine
// scalars, guest kernels, host vCPUs, devices, metrics) moves its state
// through one symmetric Codec: a single Snap method names each field once,
// and the codec either writes it (a codec built by NewWriter) or reads it
// back into place (NewReader). Save and load therefore cannot drift apart —
// one field sequence does both. The format is versioned, fixed-width,
// little-endian, and deliberately free of anything whose byte
// representation could vary between runs or platforms (no maps, no
// pointers, no varints whose length depends on incidental magnitudes).
//
// Asymmetry is confined to what is genuinely one-sided — shape checks
// against the rebuilt object graph, id ↔ pointer resolution, event re-arm,
// pool acquisition — and sits behind Codec.Loading or a shared helper
// (Shape, Len, Slice here; sim's event coordinates).
//
// Determinism contract: encoding the same logical state must always
// produce the same bytes. Callers therefore must never range over a map
// while calling into a Codec (paratick-vet rule D003) — collect keys, sort,
// then encode.
//
// The package is a leaf: it imports only the standard library, so every
// layer of the simulator can depend on it without cycles.
package snap

import (
	"fmt"
	"math"
	"strings"
)

// Magic opens every snapshot produced by Header. Changing the format
// incompatibly must bump Version, never reuse it.
const Magic = "PTSNAP"

// Version is the current snapshot format version.
const Version = 1

// Codec moves fixed-width little-endian primitives between values and a
// byte buffer. Its direction is fixed at construction: a writer appends
// each value it is handed, a reader overwrites each pointed-to value with
// the next one in the buffer. Every primitive takes a pointer, so one call
// sequence both encodes and decodes.
//
// Reader errors are sticky: after the first failure every read stores the
// zero value and Err reports the original cause, so a Snap method runs
// straight-line with one error check at the end. A writer never fails on
// its own; Fail records an error a caller detects (an unencodable state).
type Codec struct {
	buf     []byte
	off     int
	err     error
	loading bool
}

// NewWriter returns a codec that encodes into a fresh buffer.
func NewWriter() *Codec { return &Codec{} }

// NewReader returns a codec that decodes data.
func NewReader(data []byte) *Codec { return &Codec{buf: data, loading: true} }

// Loading reports whether the codec decodes (restores) rather than
// encodes. Code behind it is the one-sided part of a Snap method.
func (c *Codec) Loading() bool { return c.loading }

// Err returns the first error, or nil.
func (c *Codec) Err() error { return c.err }

// Fail records err as the codec's error unless one is already set. A nil
// err is ignored, so Fail(f()) forwards an optional failure.
func (c *Codec) Fail(err error) {
	if c.err == nil && err != nil {
		c.err = err
	}
}

// Bytes returns a writer's encoded buffer. The slice aliases the codec's
// storage; callers that keep it past further writes must copy.
func (c *Codec) Bytes() []byte { return c.buf }

// Remaining returns the number of bytes a reader has not consumed yet.
func (c *Codec) Remaining() int { return len(c.buf) - c.off }

func (c *Codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("snap: "+format+" at offset %d", append(args, c.off)...)
	}
}

// take consumes n bytes of a reader's buffer, or fails and returns nil.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.buf)-c.off {
		c.fail("truncated: need %d bytes, have %d", n, len(c.buf)-c.off)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U8 codes one byte.
func (c *Codec) U8(p *uint8) {
	if !c.loading {
		c.buf = append(c.buf, *p)
		return
	}
	if b := c.take(1); b != nil {
		*p = b[0]
	} else {
		*p = 0
	}
}

// U32 codes a fixed-width little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if !c.loading {
		v := *p
		c.buf = append(c.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		return
	}
	if b := c.take(4); b != nil {
		*p = uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	} else {
		*p = 0
	}
}

// U64 codes a fixed-width little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if !c.loading {
		v := *p
		c.buf = append(c.buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		return
	}
	if b := c.take(8); b != nil {
		*p = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	} else {
		*p = 0
	}
}

// I64 codes an int64 as its two's-complement uint64 image.
func (c *Codec) I64(p *int64) {
	u := uint64(*p)
	c.U64(&u)
	if c.loading {
		*p = int64(u)
	}
}

// Bool codes a bool as one byte (0 or 1); reading any other byte fails.
func (c *Codec) Bool(p *bool) {
	b := uint8(0)
	if *p {
		b = 1
	}
	c.U8(&b)
	if !c.loading {
		return
	}
	if b > 1 {
		c.fail("invalid bool byte")
	}
	*p = b == 1
}

// F64 codes a float64 by its IEEE-754 bit image. NaNs are canonicalized so
// logically-equal states cannot differ by NaN payload bits.
func (c *Codec) F64(p *float64) {
	bits := math.Float64bits(*p)
	if *p != *p { // NaN: canonicalize the payload
		bits = 0x7ff8000000000000
	}
	c.U64(&bits)
	if c.loading {
		*p = math.Float64frombits(bits)
	}
}

// lenBytes codes the U32 length prefix of a string or blob and, on load,
// returns the bytes it covers (nil when saving or after a failure).
func (c *Codec) lenBytes(n int) []byte {
	u := uint32(n)
	c.U32(&u)
	if !c.loading || c.err != nil {
		return nil
	}
	if int(u) > c.Remaining() {
		c.fail("truncated string: length %d exceeds %d remaining", u, c.Remaining())
		return nil
	}
	return c.take(int(u))
}

// String codes a length-prefixed string.
func (c *Codec) String(p *string) {
	if !c.loading {
		c.lenBytes(len(*p))
		c.buf = append(c.buf, *p...)
		return
	}
	*p = string(c.lenBytes(0))
}

// Blob codes a length-prefixed byte slice; the wire layout is String's.
// Loading stores a private copy, never an alias of the reader's buffer.
func (c *Codec) Blob(p *[]byte) {
	if !c.loading {
		c.lenBytes(len(*p))
		c.buf = append(c.buf, *p...)
		return
	}
	*p = append([]byte(nil), c.lenBytes(0)...)
}

// Section codes a named marker. Reading verifies it, which turns
// encode/decode skew into an immediate, labeled error instead of silently
// misparsed state.
func (c *Codec) Section(name string) {
	m := uint32(sectionMagic)
	c.U32(&m)
	if !c.loading {
		c.lenBytes(len(name))
		c.buf = append(c.buf, name...)
		return
	}
	// The error paths clone name so it never leaks: savers build section
	// names by concatenation, which must stay on the stack.
	if c.err == nil && m != sectionMagic {
		c.fail("expected section %q, found non-section data", strings.Clone(name))
		return
	}
	if got := c.lenBytes(0); c.err == nil && string(got) != name {
		c.fail("expected section %q, found %q", strings.Clone(name), got)
	}
}

const sectionMagic = 0x5ec710f1

// Len codes a variable element count on the U32 wire. A loaded count is
// bounded by the unread bytes — every element encodes at least one — so a
// corrupted count fails here instead of sizing a huge allocation.
func (c *Codec) Len(n *int) {
	u := uint32(*n)
	c.U32(&u)
	if !c.loading {
		return
	}
	*n = int(u)
	if c.err == nil && *n > c.Remaining() {
		c.fail("count %d exceeds %d remaining bytes", *n, c.Remaining())
		*n = 0
	}
}

// Shape codes a count the rebuilt object graph already fixes (pCPUs,
// locks, queues): saving writes have, loading fails unless the snapshot's
// count equals it. Either way the caller then walks its own have elements.
func (c *Codec) Shape(what string, have int) {
	u := uint32(have)
	c.U32(&u)
	if c.loading && c.err == nil && int(u) != have {
		c.err = fmt.Errorf("snap: snapshot has %d %s, have %d", u, strings.Clone(what), have)
	}
}

// Header codes the opening of a snapshot stream: magic, format version,
// and a caller-chosen kind tag naming what the snapshot contains. Loading
// validates all three.
func (c *Codec) Header(kind string) error {
	if !c.loading {
		c.buf = append(c.buf, Magic...)
		v := uint32(Version)
		c.U32(&v)
		c.String(&kind)
		return nil
	}
	if m := c.take(len(Magic)); c.err == nil && string(m) != Magic {
		c.Fail(fmt.Errorf("snap: bad magic %q (not a snapshot)", m))
	}
	var v uint32
	if c.U32(&v); c.err == nil && v != Version {
		c.Fail(fmt.Errorf("snap: unsupported snapshot version %d (want %d)", v, Version))
	}
	if k := c.lenBytes(0); c.err == nil && string(k) != kind {
		c.Fail(fmt.Errorf("snap: snapshot kind %q, want %q", k, kind))
	}
	return c.err
}

// integer is every integer kind the As* helpers convert through.
type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// AsI64 codes an integer-kinded value (sim.Time, an int, an enum) on the
// I64 wire.
func AsI64[T integer](c *Codec, p *T) {
	v := int64(*p)
	c.I64(&v)
	if c.loading {
		*p = T(v)
	}
}

// AsU8 codes an integer-kinded value (a small enum) on the U8 wire.
func AsU8[T integer](c *Codec, p *T) {
	v := uint8(*p)
	c.U8(&v)
	if c.loading {
		*p = T(v)
	}
}

// Slice codes a slice's length (see Len); loading resizes *s to the
// snapshot's length, reusing its capacity when it suffices. The caller then
// codes each element in place.
func Slice[T any](c *Codec, s *[]T) {
	n := len(*s)
	c.Len(&n)
	if !c.loading {
		return
	}
	if n > cap(*s) {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
}

// Digest is a 64-bit FNV-1a hash used for state digests: cheap, stable,
// and dependency-free. It is a corruption/divergence detector, not a
// cryptographic commitment.
type Digest uint64

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// HashBytes returns the FNV-1a digest of b.
func HashBytes(b []byte) Digest {
	h := uint64(fnvOffset)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return Digest(h)
}

// String renders the digest as fixed-width hex.
func (d Digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

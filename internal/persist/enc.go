// Package persist is the durability layer of the DynDens pipeline: versioned
// snapshots of the full pipeline state plus a CRC-framed segment WAL of the
// input stream, giving a crashed process crash-consistent recovery — it
// resumes mid-stream with story identities intact, the property the paper's
// real-time story identification depends on.
//
// The design exploits the pipeline's end-to-end determinism ("equal input
// streams produce equal outputs", pinned by the conformance tests): instead
// of logging derived effects, the WAL logs the *input units* the pipeline
// consumed — documents for co-occurrence pipelines, source batches for edge
// streams — and recovery is just a normal run whose source is [snapshot]
// ++ [WAL units after it] ++ [live source skipped past the durable prefix].
//
// On-disk layout (all integers little-endian):
//
//	snap-<seq>.snap   magic "DDSNAP1\n", format version (3; 1 and 2 are
//	                  still read, their vertex sets dropped), fingerprint,
//	                  payload, CRC-32C
//	wal-<seq>.seg     magic "DDWSEG1\n", fingerprint, first sequence, then
//	                  frames of [length u32][crc u32][seq u64][kind u8][payload]
//
// The frame CRC (CRC-32C) covers seq+kind+payload; a torn or bit-flipped
// tail is detected and truncated to the last good frame, and a gap in the
// sequence chain (a lost segment) cuts recovery off at the last contiguous
// unit. Snapshots are written to a temp file and renamed into place, so a
// torn snapshot is never picked up; recovery falls back to the newest valid
// one and replays the WAL from there.
package persist

import (
	"encoding/binary"
	"fmt"
	"math"

	"dyndens/internal/vset"
)

// encoder appends little-endian primitives to a growable buffer. It never
// fails: encoding works over in-memory state that is valid by construction.
type encoder struct {
	b []byte
}

func (e *encoder) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *encoder) set(s vset.Set) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.u32(uint32(v))
	}
}

// decoder reads the encoder's output back with a sticky error: after the
// first malformed read every subsequent read returns a zero value, and the
// caller checks err once at the end. Length prefixes are validated against
// the remaining input, so corrupt lengths fail cleanly instead of
// over-allocating.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("persist: truncated record (want %d bytes at offset %d of %d)", n, d.off, len(d.b))
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i64() int64    { return int64(d.u64()) }
func (d *decoder) f64() float64  { return math.Float64frombits(d.u64()) }
func (d *decoder) boolean() bool { return d.u8() != 0 }

// count reads a u32 length prefix for elements of at least elemBytes each,
// rejecting prefixes the remaining input cannot possibly satisfy.
func (d *decoder) count(elemBytes int) int {
	n := int(d.u32())
	if d.err == nil && n*elemBytes > len(d.b)-d.off {
		d.fail("persist: corrupt length prefix %d at offset %d", n, d.off)
		return 0
	}
	return n
}

func (d *decoder) str() string {
	n := d.count(1)
	return string(d.take(n))
}

func (d *decoder) set() vset.Set {
	n := d.count(4)
	if d.err != nil {
		return nil
	}
	s := make(vset.Set, n)
	for i := range s {
		s[i] = vset.Vertex(d.u32())
	}
	return s
}

// done verifies the whole buffer was consumed (trailing garbage is corruption
// too) and returns the sticky error.
func (d *decoder) done() error {
	if d.err == nil && d.off != len(d.b) {
		d.fail("persist: %d trailing bytes after record", len(d.b)-d.off)
	}
	return d.err
}

// Package ztier implements the compressed victim tier of the runtime: a
// deterministic LZ-style page codec plus a byte-budgeted compressed page
// pool (zswap-style). Evicted pages are sealed — compressed — into the pool
// instead of paying a fabric round trip, and a later fault unseals them with
// a microsecond-scale decompress charge. The codec is self-contained and
// allocation-free in steady state, so the wire protocol reuses it to ship
// doorbell batches with compressed page payloads.
//
// Block format: one mode byte, then the body.
//
//	mode 0 (stored): body is the input, verbatim — the fallback that caps
//	  any input, however incompressible, at MaxEncodedLen = n+1 bytes.
//	mode 1 (LZ):     body is a token stream. Each token byte packs a 4-bit
//	  literal length (high nibble) and a 4-bit match length code (low
//	  nibble); a nibble of 15 extends with continuation bytes (each byte
//	  adds its value, 255 continues — LZ4's scheme). Literals follow the
//	  length fields; then, unless the stream ends at the literals, a 2-byte
//	  little-endian back-reference offset (1..65535 into the output
//	  produced so far) and the extended match length (code + 4).
//
// Compress is a pure function of its input: match-finder table entries are
// tagged with a per-call epoch and anything older reads as empty, so equal
// pages compress to equal bytes regardless of history — the property every
// byte-identity gate in this repository leans on. Decompress rejects any
// malformed input (unknown mode, truncated fields, out-of-range
// back-references, output beyond the caller's limit) with an error, never a
// panic; FuzzZtierCodec drives hostile inputs through it.
package ztier

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

const (
	modeStored = 0x00 // body is the raw input
	modeLZ     = 0x01 // body is an LZ token stream

	// minMatch is the shortest back-reference worth encoding; the 4-bit
	// match code in each token is biased by it.
	minMatch = 4
	// maxOffset is the farthest back-reference the 2-byte offset field
	// carries.
	maxOffset = 1<<16 - 1
	// hashBits sizes the match-finder table: 4096 entries, one per position
	// of a 4KB page.
	hashBits = 12
	// extNibble is the nibble value that switches a length field to
	// extension bytes.
	extNibble = 15
	// minCompressLen is the shortest input worth attempting LZ on; anything
	// smaller goes out stored.
	minCompressLen = 16
	// maxCompressLen guards the int32 match-finder positions; larger inputs
	// go out stored.
	maxCompressLen = 1 << 30
)

// MaxEncodedLen bounds Compress's output for an n-byte input: the stored
// fallback is one mode byte plus the raw bytes, and Compress never emits an
// LZ block that is not strictly smaller than that.
func MaxEncodedLen(n int) int { return n + 1 }

// Compressor holds the match-finder state for Compress. The zero value is
// ready to use; a Compressor is not safe for concurrent use, but any number
// may run in parallel on their own inputs. Output depends only on the input
// bytes — never on what was compressed before.
type Compressor struct {
	// table holds base+position+1 of the last occurrence per hash. Entries
	// <= base were written by earlier calls and read as empty, so the table
	// never needs clearing between calls.
	table [1 << hashBits]int32
	// base is this call's epoch: it advances by len(src) per call and
	// resets to 0, with a table clear, only when it would overflow int32.
	base int32
	buf  []byte // retained LZ scratch between calls
}

// Compress appends the encoded block for src to dst and returns the
// extended slice. The output is at most MaxEncodedLen(len(src)) bytes:
// incompressible input falls back to a stored block. Equal inputs always
// produce equal outputs.
func (c *Compressor) Compress(dst, src []byte) []byte {
	if len(src) >= minCompressLen && len(src) <= maxCompressLen {
		if body, ok := c.compressLZ(src); ok {
			dst = append(dst, modeLZ)
			return append(dst, body...)
		}
	}
	dst = append(dst, modeStored)
	return append(dst, src...)
}

// compressLZ greedily encodes src into the Compressor's scratch buffer and
// reports whether the result beats the stored fallback. Table entries from
// earlier calls sit at or below this call's base and read as empty, so the
// encoding is a pure function of src.
func (c *Compressor) compressLZ(src []byte) ([]byte, bool) {
	if int(c.base) > math.MaxInt32-len(src) {
		clear(c.table[:])
		c.base = 0
	}
	// An entry holds bias+position, so this call's entries are > base.
	bias := int(c.base) + 1
	c.base += int32(len(src))
	out := c.buf[:0]
	// The LZ body must be strictly smaller than the stored body to win.
	budget := len(src) - 1
	anchor, pos := 0, 0
	last := len(src) - minMatch
	for {
		var cand int
		if pos, cand = c.nextMatch(src, pos, last, bias); pos > last {
			break
		}
		mlen := extendMatch(src, cand, pos)
		var ok bool
		out, ok = emitSeq(out, src[anchor:pos], pos-cand, mlen, budget)
		if !ok {
			c.buf = out
			return nil, false
		}
		pos += mlen
		anchor = pos
	}
	if anchor < len(src) {
		var ok bool
		out, ok = emitSeq(out, src[anchor:], 0, 0, budget)
		if !ok {
			c.buf = out
			return nil, false
		}
	}
	c.buf = out
	return out, true
}

// nextMatch records every position from pos on in the match-finder table
// until one matches the first minMatch bytes of an earlier position within
// maxOffset, and returns that position and its candidate. It returns a
// position past last when src holds no further match. It stays out of
// line: inlined into compressLZ, the per-position loop spills pos to the
// stack around the emitSeq call and scans incompressible pages slower.
//
//go:noinline
func (c *Compressor) nextMatch(src []byte, pos, last, bias int) (int, int) {
	table := &c.table
	for ; pos <= last; pos++ {
		cur := binary.LittleEndian.Uint32(src[pos:])
		h := hash4(cur)
		cand := int(table[h]) - bias
		table[h] = int32(pos + bias)
		if cand >= 0 && pos-cand <= maxOffset && binary.LittleEndian.Uint32(src[cand:]) == cur {
			return pos, cand
		}
	}
	return pos, 0
}

// extendMatch returns the length of the match at pos against the earlier
// cand, whose first minMatch bytes are known equal. It compares 8 bytes per
// step — the first differing byte is the lowest set byte of the XOR — and
// finishes the last few bytes of src one at a time.
func extendMatch(src []byte, cand, pos int) int {
	n := minMatch
	for pos+n+8 <= len(src) {
		if x := binary.LittleEndian.Uint64(src[pos+n:]) ^ binary.LittleEndian.Uint64(src[cand+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for pos+n < len(src) && src[cand+n] == src[pos+n] {
		n++
	}
	return n
}

// emitSeq appends one token sequence — literals, then an optional match
// (offset > 0) — to out. It reports false when the sequence would push the
// body past budget, i.e. the encoding can no longer beat the stored
// fallback.
func emitSeq(out, lits []byte, offset, mlen, budget int) ([]byte, bool) {
	litLen := len(lits)
	need := 1 + litLen
	if litLen >= extNibble {
		need += 1 + (litLen-extNibble)/255
	}
	mcode := 0
	if offset > 0 {
		mcode = mlen - minMatch
		need += 2
		if mcode >= extNibble {
			need += 1 + (mcode-extNibble)/255
		}
	}
	if len(out)+need > budget {
		return out, false
	}
	litNib, matchNib := litLen, mcode
	if litNib > extNibble {
		litNib = extNibble
	}
	if matchNib > extNibble {
		matchNib = extNibble
	}
	out = append(out, byte(litNib<<4|matchNib))
	if litLen >= extNibble {
		out = appendExt(out, litLen-extNibble)
	}
	out = append(out, lits...)
	if offset > 0 {
		out = binary.LittleEndian.AppendUint16(out, uint16(offset))
		if mcode >= extNibble {
			out = appendExt(out, mcode-extNibble)
		}
	}
	return out, true
}

// appendExt appends v in the continuation encoding: 255 repeats, then the
// remainder.
func appendExt(out []byte, v int) []byte {
	for v >= 255 {
		out = append(out, 255)
		v -= 255
	}
	return append(out, byte(v))
}

// hash4 hashes 4 little-endian bytes into the match-finder table index.
func hash4(u uint32) uint32 {
	return (u * 2654435761) >> (32 - hashBits)
}

// Decompress appends the block src's decoded bytes to dst and returns the
// extended slice. limit bounds the decoded size (a hostile length field
// fails before any oversized copy). Any malformed input — empty, unknown
// mode, truncated fields, a back-reference outside the produced output, or
// output beyond limit — returns an error; valid input decodes to exactly the
// bytes Compress was given. When cap(dst)-len(dst) covers the decoded size,
// no allocation happens.
func Decompress(dst, src []byte, limit int) ([]byte, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("ztier: empty block")
	}
	mode, body := src[0], src[1:]
	switch mode {
	case modeStored:
		if len(body) > limit {
			return nil, fmt.Errorf("ztier: stored block of %dB exceeds limit %d", len(body), limit)
		}
		return append(dst, body...), nil
	case modeLZ:
		return decompressLZ(dst, body, limit)
	default:
		return nil, fmt.Errorf("ztier: unknown block mode 0x%02x", mode)
	}
}

// decompressLZ decodes an LZ token stream (see the package comment for the
// format) with full bounds checking.
func decompressLZ(dst, body []byte, limit int) ([]byte, error) {
	base := len(dst)
	for len(body) > 0 {
		token := body[0]
		body = body[1:]
		litLen := int(token >> 4)
		var err error
		if litLen == extNibble {
			if litLen, body, err = readExt(litLen, body); err != nil {
				return nil, err
			}
		}
		if litLen > len(body) {
			return nil, fmt.Errorf("ztier: literal run of %dB truncated at %dB", litLen, len(body))
		}
		if len(dst)-base+litLen > limit {
			return nil, fmt.Errorf("ztier: decoded size exceeds limit %d", limit)
		}
		dst = append(dst, body[:litLen]...)
		body = body[litLen:]
		if len(body) == 0 {
			// The stream ends at a literal-only sequence; its match nibble
			// must be empty or the match was truncated away.
			if token&0x0F != 0 {
				return nil, fmt.Errorf("ztier: stream ends inside a match")
			}
			break
		}
		if len(body) < 2 {
			return nil, fmt.Errorf("ztier: truncated match offset")
		}
		off := int(binary.LittleEndian.Uint16(body))
		body = body[2:]
		if off == 0 || off > len(dst)-base {
			return nil, fmt.Errorf("ztier: back-reference offset %d outside %dB of output", off, len(dst)-base)
		}
		mlen := int(token & 0x0F)
		if mlen == extNibble {
			if mlen, body, err = readExt(mlen, body); err != nil {
				return nil, err
			}
		}
		mlen += minMatch
		if len(dst)-base+mlen > limit {
			return nil, fmt.Errorf("ztier: decoded size exceeds limit %d", limit)
		}
		dst = appendMatch(dst, off, mlen)
	}
	return dst, nil
}

// appendMatch appends the mlen-byte back-reference that starts off bytes
// before the end of dst. A match that does not overlap its own output is
// one copy. One that does (off < mlen, RLE-style) repeats its first off
// bytes, so it is copied in whole periods from its start: each copy
// doubles what is available, and the last copy may end mid-period.
func appendMatch(dst []byte, off, mlen int) []byte {
	start := len(dst) - off
	if off >= mlen {
		return append(dst, dst[start:start+mlen]...)
	}
	for mlen > 0 {
		n := min(len(dst)-start, mlen)
		dst = append(dst, dst[start:start+n]...)
		mlen -= n
	}
	return dst
}

// readExt extends a length nibble of extNibble with its continuation
// bytes: each adds its value, and 255 continues.
func readExt(n int, body []byte) (int, []byte, error) {
	for {
		if len(body) == 0 {
			return 0, nil, fmt.Errorf("ztier: truncated length extension")
		}
		b := body[0]
		body = body[1:]
		n += int(b)
		if b != 255 {
			return n, body, nil
		}
	}
}

package ztier

import (
	"bytes"
	"math"
	"testing"
)

// lcgFill fills b with a seeded LCG byte stream — incompressible enough to
// force the stored fallback.
func lcgFill(b []byte, seed uint64) {
	x := seed
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
}

// semiPage builds a 4KB page of repeated 16-byte records with a few noise
// bytes — the compressible-but-not-trivial shape the figure driver uses.
func semiPage(seed uint64) []byte {
	p := make([]byte, 4096)
	x := seed
	for off := 0; off < len(p); off += 16 {
		copy(p[off:], "record-deadbeef!")
		x = x*6364136223846793005 + 1442695040888963407
		p[off+12] = byte(x >> 56)
	}
	return p
}

func roundTrip(t *testing.T, c *Compressor, src []byte) []byte {
	t.Helper()
	enc := c.Compress(nil, src)
	if len(enc) > MaxEncodedLen(len(src)) {
		t.Fatalf("encoded %dB input to %dB > MaxEncodedLen %d", len(src), len(enc), MaxEncodedLen(len(src)))
	}
	dec, err := Decompress(nil, enc, len(src))
	if err != nil {
		t.Fatalf("decompress failed: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip lost bytes: %dB in, %dB out", len(src), len(dec))
	}
	return enc
}

func TestCodecRoundTrip(t *testing.T) {
	var c Compressor
	inputs := [][]byte{
		nil,
		[]byte("x"),
		[]byte("short"),
		make([]byte, 4096), // zero page: maximally compressible
		semiPage(1),
		semiPage(2),
		bytes.Repeat([]byte{0xAB}, 4096),
		bytes.Repeat([]byte("0123456789abcdef"), 300),
	}
	rnd := make([]byte, 4096)
	lcgFill(rnd, 7)
	inputs = append(inputs, rnd)
	for i, src := range inputs {
		enc := roundTrip(t, &c, src)
		if len(src) >= 256 && isLowEntropy(src) && len(enc) >= len(src) {
			t.Errorf("input %d: compressible %dB input did not shrink (%dB)", i, len(src), len(enc))
		}
	}
}

// isLowEntropy marks the test inputs expected to compress.
func isLowEntropy(b []byte) bool {
	seen := map[byte]bool{}
	for _, x := range b[:256] {
		seen[x] = true
	}
	return len(seen) < 64
}

func TestCodecStoredFallback(t *testing.T) {
	var c Compressor
	src := make([]byte, 4096)
	lcgFill(src, 42)
	enc := c.Compress(nil, src)
	if len(enc) != MaxEncodedLen(len(src)) {
		t.Fatalf("incompressible page encoded to %dB, want stored %d", len(enc), MaxEncodedLen(len(src)))
	}
	if enc[0] != modeStored {
		t.Fatalf("incompressible page used mode 0x%02x, want stored", enc[0])
	}
}

// TestCodecDeterministic is the byte-identity contract: compression output
// depends only on the input, never on what the Compressor saw before.
func TestCodecDeterministic(t *testing.T) {
	page := semiPage(3)
	var fresh Compressor
	want := fresh.Compress(nil, page)

	var used Compressor
	poison := make([]byte, 4096)
	lcgFill(poison, 99)
	used.Compress(nil, poison)
	used.Compress(nil, semiPage(8))
	got := used.Compress(nil, page)
	if !bytes.Equal(want, got) {
		t.Fatal("compression output depends on compressor history")
	}
}

func TestDecompressRejectsCorruptInput(t *testing.T) {
	var c Compressor
	enc := c.Compress(nil, semiPage(4))
	cases := map[string][]byte{
		"empty":            {},
		"unknown mode":     {0x7F, 1, 2, 3},
		"truncated":        enc[:len(enc)/2],
		"offset zero":      {modeLZ, 0x04, 0x00, 0x00, 0x00}, // match before any output
		"offset too far":   {modeLZ, 0x14, 'a', 0x09, 0x00},  // 1 literal, offset 9
		"dangling match":   {modeLZ, 0x11},                   // stream ends inside a match
		"truncated offset": {modeLZ, 0x11, 0x01},             // 1 offset byte of 2
		"length ext EOF":   {modeLZ, 0xF0},                   // literal ext never terminates
		"literal overrun":  {modeLZ, 0x50, 'a', 'b'},         // 5 literals, 2 present
	}
	for name, in := range cases {
		if _, err := Decompress(nil, in, 4096); err == nil {
			t.Errorf("%s: corrupt input decoded without error", name)
		}
	}
	// Flipping any single byte of a valid block must never decode to the
	// original *and* claim success with different content silently — it
	// either errors or produces output; both are fine, panics are not.
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xFF
		Decompress(nil, mut, 4096)
	}
}

func TestDecompressHonorsLimit(t *testing.T) {
	var c Compressor
	src := make([]byte, 4096) // zero page compresses far below 4096
	enc := c.Compress(nil, src)
	if _, err := Decompress(nil, enc, 4095); err == nil {
		t.Fatal("decode past the limit succeeded")
	}
	if _, err := Decompress(nil, enc, 4096); err != nil {
		t.Fatalf("decode at the exact limit failed: %v", err)
	}
	stored := c.Compress(nil, []byte("abcdef"))
	if _, err := Decompress(nil, stored, 3); err == nil {
		t.Fatal("stored block past the limit succeeded")
	}
}

// TestDecompressZeroAlloc pins the unseal fast path: decoding into a
// buffer with enough capacity must not allocate, whether the block's
// matches are plain copies or overlap their own output.
func TestDecompressZeroAlloc(t *testing.T) {
	var c Compressor
	for _, in := range []namedInput{{"semi", semiPage(5)}, {"overlapping", periodPage(3)}} {
		enc := c.Compress(nil, in.src)
		dst := make([]byte, 0, 4096)
		allocs := testing.AllocsPerRun(100, func() {
			out, err := Decompress(dst[:0], enc, 4096)
			if err != nil || len(out) != 4096 {
				t.Fatal("decode failed")
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Decompress into sized buffer allocated %.1f times/op", in.name, allocs)
		}
	}
}

// TestCompressZeroAlloc pins the seal path: after one warm call sizes the
// Compressor's scratch, compressing into a dst with enough capacity must
// not allocate.
func TestCompressZeroAlloc(t *testing.T) {
	var c Compressor
	page := kvPage(2)
	dst := make([]byte, 0, MaxEncodedLen(len(page)))
	c.Compress(dst[:0], page)
	allocs := testing.AllocsPerRun(100, func() {
		dst = c.Compress(dst[:0], page)
	})
	if allocs != 0 {
		t.Fatalf("Compress into sized buffer allocated %.1f times/op", allocs)
	}
}

// TestDecompressLongOverlappingMatch decodes hand-built RLE blocks: a
// literal period of 1–3 bytes, then one back-reference at that offset whose
// length needs extension bytes, so the match overlaps its own output for
// hundreds of bytes.
func TestDecompressLongOverlappingMatch(t *testing.T) {
	for off := 1; off <= 3; off++ {
		for _, mlen := range []int{300, 4096 - off} {
			period := []byte("xyz")[:off]
			block, ok := emitSeq([]byte{modeLZ}, period, off, mlen, 1<<20)
			if !ok {
				t.Fatal("emitSeq refused the sequence")
			}
			want := bytes.Repeat(period, (off+mlen)/off+1)[:off+mlen]
			got, err := Decompress([]byte("prefix"), block, len(want))
			if err != nil {
				t.Fatalf("off %d mlen %d: %v", off, mlen, err)
			}
			if !bytes.Equal(got[:6], []byte("prefix")) || !bytes.Equal(got[6:], want) {
				t.Fatalf("off %d mlen %d: decoded bytes differ", off, mlen)
			}
		}
	}
}

// TestDecompressRejectsReferenceIntoPrefix: back-references index only the
// output this call produced, never the bytes dst already held.
func TestDecompressRejectsReferenceIntoPrefix(t *testing.T) {
	prefix := []byte("0123456789")
	reach := []byte{modeLZ, 0x24, 'a', 'b', 0x03, 0x00} // 2 literals, offset 3
	if _, err := Decompress(prefix, reach, 4096); err == nil {
		t.Fatal("back-reference into the dst prefix decoded")
	}
	exact := []byte{modeLZ, 0x24, 'a', 'b', 0x02, 0x00} // offset 2: the output start
	got, err := Decompress(prefix, exact, 4096)
	if err != nil {
		t.Fatalf("back-reference to the output start rejected: %v", err)
	}
	if want := "0123456789ababababab"; string(got) != want {
		t.Fatalf("decoded %q, want %q", got, want)
	}
}

// TestCompressorEpochWrap drives the match-finder's epoch to the int32 edge:
// the call that would overflow it clears the table and restarts, and every
// output still matches a fresh Compressor's.
func TestCompressorEpochWrap(t *testing.T) {
	poison := make([]byte, 4096)
	lcgFill(poison, 11)
	var used Compressor
	used.Compress(nil, semiPage(6))
	used.base = math.MaxInt32 - 6000
	for i, page := range [][]byte{poison, semiPage(7), kvPage(3), semiPage(7)} {
		var fresh Compressor
		want := fresh.Compress(nil, page)
		if got := used.Compress(nil, page); !bytes.Equal(got, want) {
			t.Fatalf("call %d (base %d): output differs from a fresh Compressor", i, used.base)
		}
	}
	if used.base >= math.MaxInt32-6000 {
		t.Fatalf("base %d never wrapped", used.base)
	}
}

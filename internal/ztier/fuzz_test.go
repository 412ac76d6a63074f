package ztier

import (
	"bytes"
	"testing"
)

// FuzzZtierCodec drives the block codec from both ends. The input is used
// twice: as raw bytes (compress → decompress must be the identity, within
// the MaxEncodedLen bound) and as a hostile encoded block (Decompress must
// reject or decode cleanly, never panic, never exceed the limit — and
// whatever it decodes must survive a fresh compress/decompress round trip).
func FuzzZtierCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello hello hello hello"))
	f.Add(bytes.Repeat([]byte{0}, 128))
	f.Add([]byte{modeStored, 1, 2, 3})
	f.Add([]byte{modeLZ, 0x10, 'a'})
	f.Add([]byte{modeLZ, 0x14, 'a', 0x01, 0x00}) // 1 literal + RLE match
	// 2 literals + an overlapping offset-2 match of 15+255+255+16+4 bytes.
	f.Add([]byte{modeLZ, 0x2F, 'a', 'b', 0x02, 0x00, 0xFF, 0xFF, 0x10})
	// 3 literals + a back-reference to exactly the output start, then one
	// reaching a byte before it.
	f.Add([]byte{modeLZ, 0x34, 'a', 'b', 'c', 0x03, 0x00})
	f.Add([]byte{modeLZ, 0x34, 'a', 'b', 'c', 0x04, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Compressor

		// Round-trip identity over the raw bytes.
		enc := c.Compress(nil, data)
		if len(enc) > MaxEncodedLen(len(data)) {
			t.Fatalf("encoded %dB to %dB, over the stored-fallback bound", len(data), len(enc))
		}
		dec, err := Decompress(nil, enc, len(data))
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("round trip corrupted %dB input", len(data))
		}

		// Hostile decode: data as an encoded block.
		const limit = 1 << 16
		out, err := Decompress(nil, data, limit)
		if err != nil {
			return
		}
		if len(out) > limit {
			t.Fatalf("decode produced %dB past the %dB limit", len(out), limit)
		}
		enc2 := c.Compress(nil, out)
		dec2, err := Decompress(nil, enc2, len(out))
		if err != nil || !bytes.Equal(dec2, out) {
			t.Fatalf("re-encode of decoded output broke: %v", err)
		}
	})
}

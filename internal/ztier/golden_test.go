package ztier

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/codec.golden from the current codec")

var codecGolden = filepath.Join("testdata", "codec.golden")

// kvPage builds a 4KB page the way perfbench's record images do: each
// 64-byte chunk is 5 noise bytes followed by a run from a fixed 256-byte
// dictionary at a pseudo-random start.
func kvPage(seed uint64) []byte {
	const chunk, noise, dictLen = 64, 5, 256
	var dict [dictLen]byte
	x := seed
	for i := range dict {
		x = x*6364136223846793005 + 1442695040888963407
		dict[i] = 'a' + byte(x>>56)%26
	}
	p := make([]byte, 4096)
	for off := 0; off < len(p); off += chunk {
		x = x*6364136223846793005 + 1442695040888963407
		for n := range noise {
			p[off+n] = byte(x >> (8 * n))
		}
		start := int(x>>40) % (dictLen - chunk)
		copy(p[off+noise:off+chunk], dict[start:])
	}
	return p
}

// periodPage is a 4KB page repeating the period bytes 1..period — each
// match after the first period overlaps its own output.
func periodPage(period int) []byte {
	p := make([]byte, 4096)
	for i := range p {
		p[i] = byte(1 + i%period)
	}
	return p
}

// textOf is n bytes of a repeating 8-byte phrase, so inputs at and past
// minCompressLen already take the LZ path.
func textOf(n int) []byte {
	return bytes.Repeat([]byte("abc abd "), n/8+1)[:n]
}

// namedInput is one named codec input.
type namedInput struct {
	name string
	src  []byte
}

// codecCorpus is the fixed input set whose encodings codec.golden pins.
func codecCorpus() []namedInput {
	type in = namedInput
	c := []in{{"empty", nil}}
	for _, n := range []int{1, 15, 16, 17, 4097} {
		c = append(c, in{fmt.Sprintf("text-%d", n), textOf(n)})
	}
	c = append(c, in{"zero", make([]byte, 4096)})
	for s := uint64(1); s <= 8; s++ {
		c = append(c, in{fmt.Sprintf("semi-%d", s), semiPage(s)})
	}
	for s := uint64(1); s <= 3; s++ {
		p := make([]byte, 4096)
		lcgFill(p, s)
		c = append(c, in{fmt.Sprintf("lcg-%d", s), p})
	}
	for period := 1; period <= 7; period++ {
		c = append(c, in{fmt.Sprintf("period-%d", period), periodPage(period)})
	}
	for s := uint64(1); s <= 8; s++ {
		c = append(c, in{fmt.Sprintf("kv-%d", s), kvPage(s)})
	}
	return c
}

// TestCodecGolden pins Compress's exact output bytes: one line per corpus
// input with its length, its encoded length and the SHA-256 of the encoded
// block. The figure goldens pin only a rounded ratio, so this is the check
// that a codec rewrite stayed byte-identical. -update rewrites the file.
func TestCodecGolden(t *testing.T) {
	var c Compressor
	var b strings.Builder
	for _, in := range codecCorpus() {
		enc := c.Compress(nil, in.src)
		dec, err := Decompress(nil, enc, len(in.src))
		if err != nil || !bytes.Equal(dec, in.src) {
			t.Fatalf("%s: round trip failed: %v", in.name, err)
		}
		fmt.Fprintf(&b, "%s %d %d %x\n", in.name, len(in.src), len(enc), sha256.Sum256(enc))
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(codecGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(codecGolden)
	if err != nil {
		t.Fatalf("no codec golden (regenerate with -update): %v", err)
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(g) != len(w) {
		t.Fatalf("golden has %d lines, corpus gives %d", len(w), len(g))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, g[i], w[i])
		}
	}
}

package ztier

import "testing"

// benchPages are the codec benchmarks' inputs: a semi-compressible record
// page, a perfbench-style dictionary-run page (the kv_rw_tcp workload's
// shape) and an incompressible page that takes the stored fallback.
func benchPages() []namedInput {
	stored := make([]byte, 4096)
	lcgFill(stored, 42)
	return []namedInput{
		{"semi", semiPage(1)},
		{"kv", kvPage(1)},
		{"stored", stored},
	}
}

func BenchmarkCompress(b *testing.B) {
	for _, bp := range benchPages() {
		b.Run(bp.name, func(b *testing.B) {
			var c Compressor
			dst := make([]byte, 0, MaxEncodedLen(len(bp.src)))
			b.SetBytes(int64(len(bp.src)))
			b.ReportAllocs()
			for b.Loop() {
				dst = c.Compress(dst[:0], bp.src)
			}
		})
	}
}

func BenchmarkDecompress(b *testing.B) {
	for _, bp := range benchPages() {
		b.Run(bp.name, func(b *testing.B) {
			var c Compressor
			enc := c.Compress(nil, bp.src)
			dst := make([]byte, 0, len(bp.src))
			b.SetBytes(int64(len(bp.src)))
			b.ReportAllocs()
			for b.Loop() {
				out, err := Decompress(dst[:0], enc, len(bp.src))
				if err != nil || len(out) != len(bp.src) {
					b.Fatal("decode failed")
				}
			}
		})
	}
}

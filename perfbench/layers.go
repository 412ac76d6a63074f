package main

import (
	"bytes"
	"slices"
	"time"

	"leap/internal/remote"
	"leap/internal/ztier"
)

// codecRounds is how many times each codec timing is repeated; the median
// round is reported.
const codecRounds = 21

// medianRound runs f codecRounds times and returns the median duration.
func medianRound(f func()) time.Duration {
	ds := make([]time.Duration, codecRounds)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0)
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// codecPages returns n version-0 page images spread over client 0's range.
func codecPages(s *spec, im *imager, n int) [][]byte {
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, pageSize)
		im.fillPage(pages[i], int64(i)*s.span()/int64(n), s.recSize)
	}
	return pages
}

// timeZtier times ztier.Compressor.Compress and ztier.Decompress on the
// workload's page images, in microseconds per page, and reports the
// compression ratio they reach.
func timeZtier(s *spec, im *imager) (compressUs, decompressUs, ratio float64) {
	pages := codecPages(s, im, 64)
	var c ztier.Compressor
	enc := make([][]byte, len(pages))
	dec := make([]byte, 0, pageSize)
	cd := medianRound(func() {
		for i, p := range pages {
			enc[i] = c.Compress(enc[i][:0], p)
		}
	})
	var raw, packed int
	for i, p := range pages {
		raw += len(p)
		packed += len(enc[i])
	}
	dd := medianRound(func() {
		for _, e := range enc {
			dec, _ = ztier.Decompress(dec[:0], e, pageSize)
		}
	})
	n := float64(len(pages))
	return us(cd) / n, us(dd) / n, float64(raw) / float64(packed)
}

// timeWire times the frame codec on the sampled frames: EncodeRequest plus
// EncodeResponse, and DecodeRequest plus DecodeResponse, in microseconds
// per frame (a request or a response).
func timeWire(frames []frame) (encodeUs, decodeUs float64) {
	if len(frames) == 0 {
		return 0, 0
	}
	var buf bytes.Buffer
	reqs := make([][]byte, len(frames))
	resps := make([][]byte, len(frames))
	for i, f := range frames {
		buf.Reset()
		remote.EncodeRequest(&buf, f.req)
		reqs[i] = bytes.Clone(buf.Bytes())
		buf.Reset()
		remote.EncodeResponse(&buf, f.resp)
		resps[i] = bytes.Clone(buf.Bytes())
	}
	ed := medianRound(func() {
		for _, f := range frames {
			buf.Reset()
			remote.EncodeRequest(&buf, f.req)
			remote.EncodeResponse(&buf, f.resp)
		}
	})
	var r bytes.Reader
	dd := medianRound(func() {
		for i := range frames {
			r.Reset(reqs[i])
			remote.DecodeRequest(&r)
			r.Reset(resps[i])
			remote.DecodeResponse(&r)
		}
	})
	n := float64(2 * len(frames))
	return us(ed) / n, us(dd) / n
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

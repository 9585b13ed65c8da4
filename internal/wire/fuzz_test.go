package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeBatch throws arbitrary bytes at the request decoder. The
// invariants: never panic, never over-read (every decoded bound comes from
// inside the frame — pinned by the exact re-encode check), and a
// successful decode is canonical: re-encoding the decoded batch reproduces
// the input frame byte for byte.
func FuzzDecodeBatch(f *testing.F) {
	valid, _ := AppendRequest(nil, 7, testPreds(2, 3), false)
	f.Add(valid, uint16(3), uint16(16))
	f.Add(valid[:10], uint16(3), uint16(16))
	f.Add(append(append([]byte{}, valid...), 0xAB), uint16(3), uint16(16))
	f.Add([]byte("WRPB"), uint16(1), uint16(1))
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, cols, maxRows uint16) {
		b := NewBuffer()
		b.In = append(b.In[:0], data...)
		if err := b.DecodeBatch(int(cols), int(maxRows)); err != nil {
			return
		}
		if b.Req.Rows > int(maxRows) {
			t.Fatalf("decoded %d rows past the cap %d", b.Req.Rows, maxRows)
		}
		// A canonical empty batch decodes with Cols == 0 whatever the
		// schema width asked for; non-empty batches must match it exactly.
		if b.Req.Rows == 0 {
			if b.Req.Cols != 0 || len(b.Req.Preds) != 0 {
				t.Fatalf("inconsistent empty decode: %+v with %d preds", b.Req, len(b.Req.Preds))
			}
		} else if b.Req.Cols != int(cols) || len(b.Req.Preds) != b.Req.Rows {
			t.Fatalf("inconsistent decode: %+v with %d preds", b.Req, len(b.Req.Preds))
		}
		for i, p := range b.Req.Preds {
			if len(p.Lows) != int(cols) || len(p.Highs) != int(cols) {
				t.Fatalf("pred %d spans %d/%d cols, want %d", i, len(p.Lows), len(p.Highs), cols)
			}
			if CheckFinite(p.Lows) != nil || CheckFinite(p.Highs) != nil {
				t.Fatalf("non-finite bound survived decode in pred %d", i)
			}
		}
		// Canonical round trip: the accepted frame IS the encoding of what
		// was decoded. This also proves no decoded value came from outside
		// the frame.
		re, err := AppendRequest(nil, b.Req.Generation, b.Req.Preds, false)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs from accepted frame:\n got %x\nwant %x", re, data)
		}
	})
}

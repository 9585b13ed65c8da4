package wire

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"warper/internal/query"
)

func testPreds(rows, cols int) []query.Predicate {
	ps := make([]query.Predicate, rows)
	for i := range ps {
		lows := make([]float64, cols)
		highs := make([]float64, cols)
		for j := range lows {
			lows[j] = float64(i*cols + j)
			highs[j] = float64(i*cols+j) + 0.5
		}
		ps[i] = query.Predicate{Lows: lows, Highs: highs}
	}
	return ps
}

func TestRequestRoundTrip(t *testing.T) {
	for _, tc := range []struct{ rows, cols int }{{1, 1}, {3, 4}, {64, 18}, {0, 5}} {
		preds := testPreds(tc.rows, tc.cols)
		frame, err := AppendRequest(nil, 7, preds, false)
		if err != nil {
			t.Fatalf("AppendRequest(%d,%d): %v", tc.rows, tc.cols, err)
		}
		wantLen := HeaderSize + 16*tc.rows*tc.cols
		if len(frame) != wantLen {
			t.Fatalf("frame len = %d, want %d", len(frame), wantLen)
		}
		b := NewBuffer()
		b.In = append(b.In[:0], frame...)
		if err := b.DecodeBatch(tc.cols, 8192); err != nil {
			t.Fatalf("DecodeBatch(%d,%d): %v", tc.rows, tc.cols, err)
		}
		wantCols := tc.cols
		if tc.rows == 0 {
			wantCols = 0 // canonical empty batch carries zero cols
		}
		if b.Req.Generation != 7 || b.Req.Rows != tc.rows || b.Req.Cols != wantCols {
			t.Fatalf("header = %+v", b.Req)
		}
		if len(b.Req.Preds) != tc.rows {
			t.Fatalf("decoded %d preds, want %d", len(b.Req.Preds), tc.rows)
		}
		for i, p := range b.Req.Preds {
			for j := 0; j < tc.cols; j++ {
				if p.Lows[j] != preds[i].Lows[j] || p.Highs[j] != preds[i].Highs[j] {
					t.Fatalf("pred %d col %d = [%v,%v], want [%v,%v]",
						i, j, p.Lows[j], p.Highs[j], preds[i].Lows[j], preds[i].Highs[j])
				}
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cards := []float64{1.5, 0, 1e12, 42}
	b := NewBuffer()
	b.EncodeResponse(9, FlagDegraded, cards, false)
	h, got, err := DecodeResponse(b.Out, nil)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if h.Generation != 9 || h.Flags != FlagDegraded || h.Rows != len(cards) {
		t.Fatalf("header = %+v", h)
	}
	for i := range cards {
		if got[i] != cards[i] {
			t.Fatalf("card %d = %v, want %v", i, got[i], cards[i])
		}
	}
	// Framed form: the prefix must carry the unframed length.
	b2 := NewBuffer()
	b2.EncodeResponse(9, 0, cards, true)
	if n := binary.LittleEndian.Uint32(b2.Out); int(n) != len(b2.Out)-LenPrefixSize {
		t.Fatalf("frame prefix = %d, body = %d", n, len(b2.Out)-LenPrefixSize)
	}
	if _, _, err := DecodeResponse(b2.Out[LenPrefixSize:], nil); err != nil {
		t.Fatalf("framed DecodeResponse: %v", err)
	}
}

// TestEncodeReclaimsRequestStorage pins the buffer-pool lifecycle: the
// response is encoded over the request's backing array, so a pooled buffer
// settles at one allocation ever.
func TestEncodeReclaimsRequestStorage(t *testing.T) {
	preds := testPreds(16, 6)
	frame, _ := AppendRequest(nil, 0, preds, false)
	b := NewBuffer()
	b.In = append(b.In[:0], frame...)
	if err := b.DecodeBatch(6, 8192); err != nil {
		t.Fatal(err)
	}
	before := cap(b.In)
	b.EncodeResponse(1, 0, make([]float64, 16), false)
	if cap(b.In) != before {
		t.Fatalf("encode grew the buffer: cap %d → %d", before, cap(b.In))
	}
	if &b.Out[0] != &b.In[:1][0] {
		t.Fatal("response does not reuse the request's backing array")
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := func() []byte {
		f, _ := AppendRequest(nil, 3, testPreds(2, 3), false)
		return f
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
		cols int
		max  int
		want error
	}{
		{"short header", func(f []byte) []byte { return f[:10] }, 3, 8, ErrShortFrame},
		{"empty", func(f []byte) []byte { return nil }, 3, 8, ErrShortFrame},
		{"bad magic", func(f []byte) []byte { f[0] ^= 0xff; return f }, 3, 8, ErrMagic},
		{"bad version", func(f []byte) []byte { f[4] = 99; return f }, 3, 8, ErrVersion},
		{"reserved flags", func(f []byte) []byte { f[6] = 1; return f }, 3, 8, ErrFlags},
		{"rows over cap", func(f []byte) []byte { return f }, 3, 1, ErrRows},
		{"cols mismatch", func(f []byte) []byte { return f }, 4, 8, ErrCols},
		{"short payload", func(f []byte) []byte { return f[:len(f)-8] }, 3, 8, ErrShortFrame},
		{"trailing bytes", func(f []byte) []byte { return append(f, 0) }, 3, 8, ErrTrailingData},
		{"nan low", func(f []byte) []byte {
			binary.LittleEndian.PutUint64(f[HeaderSize:], math.Float64bits(math.NaN()))
			return f
		}, 3, 8, ErrNonFinite},
		{"inf high", func(f []byte) []byte {
			binary.LittleEndian.PutUint64(f[len(f)-8:], math.Float64bits(math.Inf(1)))
			return f
		}, 3, 8, ErrNonFinite},
		{"forged row count", func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[16:], 1<<31)
			return f
		}, 3, 8, ErrRows},
	}
	for _, tc := range cases {
		b := NewBuffer()
		b.In = append(b.In[:0], tc.mut(valid())...)
		if err := b.DecodeBatch(tc.cols, tc.max); err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestCheckFinite(t *testing.T) {
	if err := CheckFinite([]float64{0, -1e300, 1e300, math.MaxFloat64}); err != nil {
		t.Fatalf("finite values rejected: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckFinite([]float64{1, bad}); err != ErrNonFinite {
			t.Errorf("CheckFinite(%v) = %v, want ErrNonFinite", bad, err)
		}
	}
}

func TestReadAllReusesCapacity(t *testing.T) {
	b := NewBuffer()
	if err := b.ReadAll(strings.NewReader("hello")); err != nil {
		t.Fatal(err)
	}
	if string(b.In) != "hello" {
		t.Fatalf("In = %q", b.In)
	}
	before := cap(b.In)
	if err := b.ReadAll(strings.NewReader("ok")); err != nil {
		t.Fatal(err)
	}
	if string(b.In) != "ok" || cap(b.In) != before {
		t.Fatalf("reuse failed: In=%q cap %d → %d", b.In, before, cap(b.In))
	}
}

// TestDecodeSteadyAllocs pins the zero-copy contract at the codec layer:
// once a buffer has seen its batch shape, decode + encode allocate nothing.
func TestDecodeSteadyAllocs(t *testing.T) {
	preds := testPreds(64, 6)
	frame, _ := AppendRequest(nil, 0, preds, false)
	cards := make([]float64, 64)
	b := NewBuffer()
	// Warm: reach the high-water capacity once.
	b.In = append(b.In[:0], frame...)
	if err := b.DecodeBatch(6, 8192); err != nil {
		t.Fatal(err)
	}
	b.EncodeResponse(1, 0, cards, false)
	allocs := testing.AllocsPerRun(100, func() {
		b.In = append(b.In[:0], frame...)
		if err := b.DecodeBatch(6, 8192); err != nil {
			t.Fatal(err)
		}
		b.EncodeResponse(1, 0, cards, false)
	})
	if allocs != 0 {
		t.Fatalf("steady decode/encode allocates %v times per run, want 0", allocs)
	}
}

func TestDecodeResponseErrors(t *testing.T) {
	b := NewBuffer()
	b.EncodeResponse(1, 0, []float64{1, 2}, false)
	if _, _, err := DecodeResponse(b.Out[:10], nil); err != ErrShortFrame {
		t.Errorf("short: %v", err)
	}
	long := append(append([]byte{}, b.Out...), 0)
	if _, _, err := DecodeResponse(long, nil); err != ErrTrailingData {
		t.Errorf("trailing: %v", err)
	}
	bad := append([]byte{}, b.Out...)
	bad[0] ^= 0xff
	if _, _, err := DecodeResponse(bad, nil); err != ErrMagic {
		t.Errorf("magic: %v", err)
	}
}

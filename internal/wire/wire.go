// Package wire implements the columnar binary batch protocol behind
// POST /estimate/batch: a fixed little-endian header followed by two float64 column blocks, lows
// then highs, each predicate-major so one predicate's bounds are a
// contiguous sub-slice of the frame. On little-endian hosts the decoder
// views those blocks in place — decoded predicates alias the request
// bytes and the whole decode allocates nothing on the steady path.
//
// Request frame (all fields little-endian):
//
//	[ 0: 4)  magic      uint32  "WRPB"
//	[ 4: 6)  version    uint16  1
//	[ 6: 8)  flags      uint16  must be zero (reserved)
//	[ 8:16)  generation uint64  client's last-seen serving generation (0 = unknown)
//	[16:20)  rows       uint32  predicates in the batch
//	[20:24)  cols       uint32  schema columns per predicate
//	[24:24+8·rows·cols)           lows block  (row i at [i·cols, (i+1)·cols))
//	[24+8·rows·cols:24+16·rows·cols) highs block, same layout
//
// A frame must end exactly where its header says: shorter is
// ErrShortFrame, longer is ErrTrailingData — the same contract the JSON
// handlers enforce with a second Decode. Every bound must be finite;
// NaN/±Inf frames are rejected with ErrNonFinite before any bound can
// reach normalization, a cache key or a feature vector.
//
// Response frame:
//
//	[ 0: 4)  magic      uint32
//	[ 4: 6)  version    uint16
//	[ 6: 8)  flags      uint16  FlagDegraded; other bits reserved (zero)
//	[ 8:16)  generation uint64  serving generation that computed the answers (0 = none)
//	[16:20)  rows       uint32
//	[20:24)  reserved   uint32  zero
//	[24:24+8·rows)               cardinalities, float64 LE
//
// Versioning rules: the magic and the header layout above are frozen; a
// layout change bumps Version and old servers answer ErrVersion, never a
// misparse. Reserved flag bits and the reserved response word must be
// zero on the wire so future versions can assign them.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"math"

	"warper/internal/query"
)

// Frame layout constants.
const (
	// Magic spells "WRPB" when the uint32 is laid down little-endian.
	Magic = 0x42505257
	// Version is the only frame layout this package speaks.
	Version = 1
	// HeaderSize is the fixed byte size of both header forms.
	HeaderSize = 24
	// LenPrefixSize is the byte size of the length prefix a framed encode
	// prepends.
	LenPrefixSize = 4
)

// FlagDegraded, the one response flag bit, marks a response with at least
// one fallback-ladder answer (the binary analogue of the JSON "degraded"
// field).
const FlagDegraded uint16 = 1 << 0

// Decode failures. Sentinels, never wrapped: the serving path maps them
// to HTTP 400 by identity and must not allocate to do so.
var (
	ErrShortFrame = errors.New("wire: frame shorter than its header demands")
	ErrMagic      = errors.New("wire: bad magic")
	ErrVersion    = errors.New("wire: unsupported protocol version")
	ErrFlags      = errors.New("wire: reserved request flag bits set")
	ErrRows       = errors.New("wire: row count exceeds the batch cap")
	ErrCols       = errors.New("wire: column count does not match the schema")
	// ErrTrailingData is shared with the JSON handlers' strict decode:
	// both protocols reject bodies that continue past their one payload.
	ErrTrailingData = errors.New("request carries trailing bytes after its payload")
	// ErrNonFinite is shared with the JSON predicate decoder: normalization
	// clamps ±Inf into range and lets NaN through, so a non-finite bound
	// would silently poison the cache key and the model's feature vector.
	ErrNonFinite = errors.New("predicate bound is NaN or infinite")
)

// Request is one decoded batch. Preds alias the frame bytes (or the
// buffer's decode slab on big-endian hosts) and are valid only until the
// next Decode/Encode call on the owning Buffer.
type Request struct {
	// Generation is the client's last-seen serving generation echo.
	Generation uint64
	Rows, Cols int
	Preds      []query.Predicate
	// Lows and Highs are the whole lows and highs blocks, row-major: Preds[i]
	// views [i·Cols, (i+1)·Cols) of each.
	Lows, Highs []float64
}

// Buffer is one pooled request/response unit: the raw frame bytes, the
// decoded batch view, and the response encoded over the reclaimed request
// storage. A Buffer is single-owner between checkout and release; none of
// its methods are safe for concurrent use.
type Buffer struct {
	// In holds the request frame. ReadAll fills it reusing its capacity;
	// EncodeResponse reclaims the same backing array.
	In []byte
	// Out is the encoded response frame, aliasing In's storage.
	Out []byte
	// Req is the result of the last successful DecodeBatch.
	Req Request

	preds  []query.Predicate
	floats []float64 // decode slab for hosts that cannot view In in place
}

// bufferInitialCap sizes a fresh Buffer's frame storage: 64 KiB holds a
// 227-row batch over an 18-column schema without growing.
const bufferInitialCap = 64 << 10

// NewBuffer builds a Buffer with pre-sized frame storage.
//
//lint:allow hotpathalloc constructing a pooled buffer allocates once; the serving free list recycles it forever after
func NewBuffer() *Buffer {
	return &Buffer{In: make([]byte, 0, bufferInitialCap)}
}

// ReadAll reads r to EOF into b.In, reusing its capacity. The caller
// bounds r (http.MaxBytesReader); growth is capacity-doubling and sticks
// with the buffer for its pooled lifetime.
func (b *Buffer) ReadAll(r io.Reader) error {
	b.In = b.In[:0]
	for {
		if len(b.In) == cap(b.In) {
			//lint:allow hotpathalloc grow-once frame storage: a pooled buffer keeps its high-water capacity
			b.In = append(b.In, 0)[:len(b.In)]
		}
		n, err := r.Read(b.In[len(b.In):cap(b.In)])
		b.In = b.In[:len(b.In)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// DecodeBatch parses b.In into b.Req. wantCols is the serving schema's
// column count; maxRows caps the batch so a forged row count cannot force
// a huge inference. The frame must be exactly header + 16·rows·cols bytes
// and every bound must be finite. On little-endian hosts the decoded
// predicates view the frame bytes in place; nothing allocates once the
// buffer's slices have reached their high-water capacity.
func (b *Buffer) DecodeBatch(wantCols, maxRows int) error {
	in := b.In
	if len(in) < HeaderSize {
		return ErrShortFrame
	}
	if binary.LittleEndian.Uint32(in[0:]) != Magic {
		return ErrMagic
	}
	if binary.LittleEndian.Uint16(in[4:]) != Version {
		return ErrVersion
	}
	if binary.LittleEndian.Uint16(in[6:]) != 0 {
		return ErrFlags
	}
	gen := binary.LittleEndian.Uint64(in[8:])
	rows64 := uint64(binary.LittleEndian.Uint32(in[16:]))
	cols64 := uint64(binary.LittleEndian.Uint32(in[20:]))
	// Canonical empty batch: zero rows carry zero cols (an empty batch
	// cannot state a width — AppendRequest encodes it that way too).
	if rows64 == 0 {
		if cols64 != 0 {
			return ErrCols
		}
	} else if wantCols < 0 || cols64 != uint64(wantCols) {
		return ErrCols
	}
	if maxRows < 0 || rows64 > uint64(maxRows) {
		return ErrRows
	}
	// rows is capped and cols matches a real schema, so the size
	// arithmetic below cannot overflow uint64.
	need := uint64(HeaderSize) + 16*rows64*cols64
	if uint64(len(in)) < need {
		return ErrShortFrame
	}
	if uint64(len(in)) > need {
		return ErrTrailingData
	}
	rows, cols := int(rows64), int(cols64)
	nvals := rows * cols
	payload := in[HeaderSize:]
	var lows, highs []float64
	lv, lok := floatView(payload[:8*nvals])
	hv, hok := floatView(payload[8*nvals:])
	if lok && hok {
		lows, highs = lv, hv
	} else {
		// Foreign byte order (or a misaligned buffer): decode into the
		// pooled slab instead of viewing in place.
		if cap(b.floats) < 2*nvals {
			//lint:allow hotpathalloc grow-once decode slab for hosts without the in-place view
			b.floats = make([]float64, 2*nvals)
		}
		slab := b.floats[:2*nvals]
		for i := range slab {
			slab[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		lows, highs = slab[:nvals], slab[nvals:]
	}
	if err := CheckFinite(lows); err != nil {
		return err
	}
	if err := CheckFinite(highs); err != nil {
		return err
	}
	if cap(b.preds) < rows {
		//lint:allow hotpathalloc grow-once predicate views; a pooled buffer keeps its high-water capacity
		b.preds = make([]query.Predicate, rows)
	}
	preds := b.preds[:rows]
	for i := 0; i < rows; i++ {
		preds[i] = query.Predicate{
			Lows:  lows[i*cols : (i+1)*cols : (i+1)*cols],
			Highs: highs[i*cols : (i+1)*cols : (i+1)*cols],
		}
	}
	b.preds = preds
	b.Req = Request{Generation: gen, Rows: rows, Cols: cols, Preds: preds, Lows: lows, Highs: highs}
	return nil
}

// EncodeResponse encodes a response frame for cards into b.Out, reclaiming
// the request bytes' backing array: a response (24 + 8·rows) never
// outgrows the request (24 + 16·rows·cols) that produced it, so by the
// time the caller encodes, the decode views are dead by contract. framed
// prepends a uint32 length prefix; no endpoint reads one, and the
// parameter stays only because bench/, which may not change outside a
// benchmark PR, passes false by position.
func (b *Buffer) EncodeResponse(gen uint64, flags uint16, cards []float64, framed bool) {
	size := HeaderSize + 8*len(cards)
	total := size
	if framed {
		total += LenPrefixSize
	}
	if cap(b.In) < total {
		//lint:allow hotpathalloc grow-once frame storage (only a framed empty response can outgrow its request)
		b.In = make([]byte, 0, total)
	}
	out := b.In[:total]
	off := 0
	if framed {
		binary.LittleEndian.PutUint32(out[0:], uint32(size))
		off = LenPrefixSize
	}
	h := out[off:]
	binary.LittleEndian.PutUint32(h[0:], Magic)
	binary.LittleEndian.PutUint16(h[4:], Version)
	binary.LittleEndian.PutUint16(h[6:], flags)
	binary.LittleEndian.PutUint64(h[8:], gen)
	binary.LittleEndian.PutUint32(h[16:], uint32(len(cards)))
	binary.LittleEndian.PutUint32(h[20:], 0)
	body := h[HeaderSize:]
	if v, ok := floatView(body); ok {
		copy(v, cards)
	} else {
		for i, c := range cards {
			binary.LittleEndian.PutUint64(body[8*i:], math.Float64bits(c))
		}
	}
	b.Out = out
}

// CheckFinite reports ErrNonFinite if any value is NaN or ±Inf: all-ones
// exponent bits. Shared by the binary decoder and the JSON predicate
// decoder so both protocols reject the same poison the same way.
func CheckFinite(vals []float64) error {
	const expMask = 0x7ff0000000000000
	for _, v := range vals {
		if math.Float64bits(v)&expMask == expMask {
			return ErrNonFinite
		}
	}
	return nil
}

// AppendRequest appends one encoded request frame for preds to dst and
// returns the extended slice — the client-side encoder (benchmarks, tests,
// Go clients). Every predicate must span the same column count. framed
// prepends a uint32 length prefix; like EncodeResponse's, the parameter
// stays only because bench/ passes false by position.
func AppendRequest(dst []byte, gen uint64, preds []query.Predicate, framed bool) ([]byte, error) {
	rows := len(preds)
	cols := 0
	if rows > 0 {
		cols = len(preds[0].Lows)
	}
	for _, p := range preds {
		if len(p.Lows) != cols || len(p.Highs) != cols {
			return nil, ErrCols
		}
	}
	size := HeaderSize + 16*rows*cols
	var s [8]byte
	if framed {
		binary.LittleEndian.PutUint32(s[:4], uint32(size))
		dst = append(dst, s[:4]...)
	}
	binary.LittleEndian.PutUint32(s[:4], Magic)
	dst = append(dst, s[:4]...)
	binary.LittleEndian.PutUint16(s[:2], Version)
	dst = append(dst, s[:2]...)
	binary.LittleEndian.PutUint16(s[:2], 0)
	dst = append(dst, s[:2]...)
	binary.LittleEndian.PutUint64(s[:], gen)
	dst = append(dst, s[:]...)
	binary.LittleEndian.PutUint32(s[:4], uint32(rows))
	dst = append(dst, s[:4]...)
	binary.LittleEndian.PutUint32(s[:4], uint32(cols))
	dst = append(dst, s[:4]...)
	for _, p := range preds {
		for _, v := range p.Lows {
			binary.LittleEndian.PutUint64(s[:], math.Float64bits(v))
			dst = append(dst, s[:]...)
		}
	}
	for _, p := range preds {
		for _, v := range p.Highs {
			binary.LittleEndian.PutUint64(s[:], math.Float64bits(v))
			dst = append(dst, s[:]...)
		}
	}
	return dst, nil
}

// ResponseHeader is the decoded fixed part of a response frame.
type ResponseHeader struct {
	Generation uint64
	Flags      uint16
	Rows       int
}

// Degraded reports the FlagDegraded bit.
func (h ResponseHeader) Degraded() bool { return h.Flags&FlagDegraded != 0 }

// DecodeResponse parses one (unframed) response frame, appending the
// cardinalities to cards[:0] so callers can reuse one slice across calls.
func DecodeResponse(frame []byte, cards []float64) (ResponseHeader, []float64, error) {
	if len(frame) < HeaderSize {
		return ResponseHeader{}, nil, ErrShortFrame
	}
	if binary.LittleEndian.Uint32(frame[0:]) != Magic {
		return ResponseHeader{}, nil, ErrMagic
	}
	if binary.LittleEndian.Uint16(frame[4:]) != Version {
		return ResponseHeader{}, nil, ErrVersion
	}
	h := ResponseHeader{
		Flags:      binary.LittleEndian.Uint16(frame[6:]),
		Generation: binary.LittleEndian.Uint64(frame[8:]),
		Rows:       int(binary.LittleEndian.Uint32(frame[16:])),
	}
	need := uint64(HeaderSize) + 8*uint64(h.Rows)
	if uint64(len(frame)) < need {
		return ResponseHeader{}, nil, ErrShortFrame
	}
	if uint64(len(frame)) > need {
		return ResponseHeader{}, nil, ErrTrailingData
	}
	cards = cards[:0]
	body := frame[HeaderSize:]
	for i := 0; i < h.Rows; i++ {
		cards = append(cards, math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:])))
	}
	return h, cards, nil
}

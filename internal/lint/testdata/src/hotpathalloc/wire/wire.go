// Package wire is the hotpathalloc fixture for the binary batch codec: a
// miniature Buffer whose DecodeBatch / EncodeResponse roots mirror the real
// codec — header arithmetic, subslice views and reclaimed request storage
// on the zero-alloc side, the sanctioned grow-once slab behind a statement
// allow, and every other allocation flagged.
package wire

import "io"

type Request struct {
	Rows  int
	Preds [][]float64
}

type Buffer struct {
	In     []byte
	Out    []byte
	Req    Request
	floats []float64
	hdr    [4]byte
}

// DecodeBatch: header reads and subslice views allocate nothing; the slab
// grow is sanctioned once, but the per-row append is not (the real codec
// pre-sizes Preds to the row count before slicing views out).
func (b *Buffer) DecodeBatch(r io.Reader, cols int) error {
	if err := b.read(r); err != nil {
		return err
	}
	if len(b.In) < 24 {
		return io.ErrUnexpectedEOF
	}
	rows := int(b.In[16])
	need := rows * cols
	if cap(b.floats) < need {
		//lint:allow hotpathalloc fixture: grow-once decode slab, reused across frames
		b.floats = make([]float64, need)
	}
	view := b.floats[:need]
	b.Req.Rows = rows
	b.Req.Preds = b.Req.Preds[:0]
	for i := 0; i < rows; i++ {
		b.Req.Preds = append(b.Req.Preds, view[i*cols:(i+1)*cols]) // want "append may grow"
	}
	return nil
}

// EncodeResponse reclaims the request's backing storage, which is free;
// the unsanctioned grow and the label copy are the violations.
func (b *Buffer) EncodeResponse(cards []float64) {
	out := b.In[:0]
	for i := range cards {
		out = append(out, byte(i)) // want "append may grow"
	}
	label := []byte(b.debugLabel()) // want "conversion copies"
	_ = label
	b.Out = out
}

// read takes the frame header into buffer-owned scratch (free); the
// drain-on-error fallback allocates and must be flagged through the
// DecodeBatch root. Dump is pruned by its decl-level allow even though this
// call site reaches it.
func (b *Buffer) read(r io.Reader) error {
	if _, err := io.ReadFull(r, b.hdr[:]); err != nil {
		_ = b.Dump()
		body, _ := io.ReadAll(r) // want "io.ReadAll allocates"
		_ = body
		return err
	}
	if int(b.hdr[0]) > cap(b.In) {
		panic("frame too large for fixture") // panic arguments are exempt
	}
	return b.fill(r)
}

// fill is reachable from DecodeBatch through read: its scratch and boxing
// must be flagged through the call-graph walk, not just at the root.
func (b *Buffer) fill(r io.Reader) error {
	tmp := make([]byte, 16) // want "make allocates"
	var v any
	v = len(tmp) // want "interface boxing of int"
	_ = v
	_, err := io.ReadFull(r, tmp)
	return err
}

func (b *Buffer) debugLabel() string { return "wire" }

// Dump allocates by design; the decl-level allow prunes the whole
// function from the walk even though read's error branch calls it.
//
//lint:allow hotpathalloc fixture: diagnostics dump is off the hot path
func (b *Buffer) Dump() []string {
	return []string{"rows", "cols"}
}

// unreachableGrow is never called from a rooted codec path: out of scope.
func unreachableGrow() []byte { return make([]byte, 64) }

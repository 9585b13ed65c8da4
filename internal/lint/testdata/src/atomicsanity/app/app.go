// Package app is the atomicsanity fixture: every package-level
// sync/atomic function is banned, whatever it is applied to and whether or
// not a plain access sits beside it; the typed atomics are the sanctioned
// form.
package app

import "sync/atomic"

type counter struct {
	n   int64
	gen uint64
	ok  int64
}

func NewCounter() *counter {
	c := &counter{}
	c.n = 0
	return c
}

func (c *counter) bump() {
	atomic.AddInt64(&c.n, 1)      // want "atomic.AddInt64 on a plain variable"
	atomic.StoreUint64(&c.gen, 7) // want "atomic.StoreUint64 on a plain variable"
}

// The plain reads the banned calls leave exposed: nothing stops them, which
// is why the calls themselves are the violation.
func (c *counter) read() int64 { return c.n }

func (c *counter) mix() {
	c.gen++
	v := atomic.LoadUint64(&c.gen) // want "atomic.LoadUint64 on a plain variable"
	_ = v
}

// ok is never touched atomically; plain access is plain access.
func (c *counter) plainOnly() int64 {
	c.ok++
	return c.ok
}

var global int64

func touchGlobal() {
	atomic.AddInt64(&global, 1) // want "atomic.AddInt64 on a plain variable"
}

// A function value is a use of the function too.
var swap = atomic.CompareAndSwapInt64 // want "atomic.CompareAndSwapInt64 on a plain variable"

func sanctioned() int64 {
	//lint:allow atomicsanity fixture: a documented exception is still possible
	return atomic.LoadInt64(&global)
}

// typed atomics never trip the rule: their value cannot be read plainly.
type typed struct {
	n atomic.Int64
	p atomic.Pointer[counter]
}

func (t *typed) bump() int64 {
	t.n.Add(1)
	t.p.Store(NewCounter())
	return t.n.Load()
}

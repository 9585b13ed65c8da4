// Package serve is the goroutineleak fixture: in a serving package every
// go statement is a violation, whether or not the goroutine can find its
// way out — the exits below are the ones the former reachability analysis
// accepted — and //lint:allow is the explicit override.
package serve

import "context"

type Worker struct {
	tasks chan int
}

// range over a channel exits when the channel closes; still a spawn site.
func (w *Worker) startDrain() {
	go func() { // want "go statement in package serve"
		for range w.tasks {
		}
	}()
}

// the exit lives in a named function.
func (w *Worker) startNamed(ctx context.Context) {
	go w.loop(ctx) // want "go statement in package serve"
}

func (w *Worker) loop(ctx context.Context) {
	for ctx.Err() == nil {
	}
}

// leak: busy loop with no exit construct anywhere.
func (w *Worker) startHot() {
	go func() { // want "go statement in package serve"
		for {
		}
	}()
}

// leak: a func-typed value.
func (w *Worker) startFire(f func()) {
	go f() // want "go statement in package serve"
}

// a spawn nested in a closure is found too.
func (w *Worker) startNested() func() {
	return func() {
		go w.loop(context.Background()) // want "go statement in package serve"
	}
}

// allowed: the override names what stops the goroutine and what waits.
func (w *Worker) startSanctioned(done chan struct{}) {
	//lint:allow goroutineleak fixture: exits when tasks closes; the caller waits on done
	go func() {
		for range w.tasks {
		}
		close(done)
	}()
}

// calls and defers are not spawns.
func (w *Worker) inline(ctx context.Context) {
	defer w.loop(ctx)
	w.loop(ctx)
}

package engine

import (
	"context"
	"fmt"
	"time"
)

// pool bounds the number of provenance evaluations running at once, each
// on its caller's goroutine. Evaluation is CPU-bound and worst-case
// exponential, so the bound keeps one burst of heavy queries from swamping
// the process; the wait for a slot shows in engine_queue_wait_seconds.
type pool struct {
	slots  chan struct{} // one token per running evaluation
	closed chan struct{} // closed by close, before it takes every slot
}

// close refuses new evaluations and waits for the running ones to finish,
// by taking every slot and never giving them back.
func (p *pool) close() {
	close(p.closed)
	for range cap(p.slots) {
		p.slots <- struct{}{}
	}
}

// run runs fn on the caller's goroutine once one of the engine's
// evaluation slots is free, recording how long it waited. ctx is checked
// only before fn starts: a ctx done first returns its error, and an engine
// closed first returns ErrClosed. A panic in fn becomes an error, so one
// malformed request cannot take down the whole service.
func run[T any](ctx context.Context, e *Engine, fn func() (T, error)) (val T, err error) {
	queued := time.Now()
	select {
	case e.pool.slots <- struct{}{}:
	case <-ctx.Done():
		return val, ctx.Err()
	case <-e.pool.closed:
		return val, ErrClosed
	}
	defer func() {
		<-e.pool.slots
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: job panicked: %v", r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return val, err
	}
	e.met.queueWait.Observe(time.Since(queued))
	return fn()
}

package service

import (
	"context"
	"fmt"
	"sync"
)

// flightGroup collapses concurrent duplicate work: while one caller
// computes the value for a key, later callers with the same key block
// and share the first caller's result instead of recomputing. This is
// the de-duplication layer in front of the expensive sweep pipeline —
// N identical concurrent requests cost one simulation. (Hand-rolled:
// the repo carries no external dependencies.)
//
// The computation belongs to the flight, not to the caller that started
// it: it runs under a flight-owned context, so one client leaving does
// not fail the others. Each caller waits under its own context and may
// leave at any time; the flight's context is cancelled only when every
// caller has left.
type flightGroup struct {
	mu        sync.Mutex
	calls     map[string]*flightCall
	collapsed uint64
	running   int             // computations not yet returned
	idle      []chan struct{} // closed when running drops to 0
}

type flightCall struct {
	done    chan struct{}
	val     []byte
	err     error
	waiters int                // callers still waiting; guarded by flightGroup.mu
	cancel  context.CancelFunc // cancels the flight's context
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: map[string]*flightCall{}}
}

// Do runs fn once per key at a time. The boolean reports whether this
// caller shared another caller's in-flight result (true) or started the
// flight (false). fn receives the flight's context, which keeps ctx's
// values but not its cancellation. When ctx ends before the result is
// ready, Do returns ctx's error at once. Results are not cached beyond
// the flight: once fn returns, the key is free again — persistent reuse
// is the store's job.
func (g *flightGroup) Do(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) ([]byte, bool, error) {
	g.mu.Lock()
	c, shared := g.calls[key]
	if shared {
		g.collapsed++
	} else {
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c = &flightCall{done: make(chan struct{}), cancel: cancel}
		g.calls[key] = c
		g.running++
		go g.run(fctx, key, c, fn)
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, shared, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		if c.waiters == 0 {
			// Nobody wants the result any more: stop the work, and let
			// the next caller start a fresh flight.
			c.cancel()
			if g.calls[key] == c {
				delete(g.calls, key)
			}
		}
		g.mu.Unlock()
		return nil, shared, ctx.Err()
	}
}

// run computes the flight's result and releases its waiters. A panic in
// fn becomes the flight's error, as net/http would have recovered it
// had fn run on the handler's goroutine.
func (g *flightGroup) run(ctx context.Context, key string, c *flightCall, fn func(context.Context) ([]byte, error)) {
	defer func() {
		if p := recover(); p != nil {
			c.val, c.err = nil, fmt.Errorf("service: computation panicked: %v", p)
		}
		g.mu.Lock()
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		if g.running--; g.running == 0 {
			for _, ch := range g.idle {
				close(ch)
			}
			g.idle = nil
		}
		g.mu.Unlock()
		c.cancel()
		close(c.done)
	}()
	c.val, c.err = fn(ctx)
}

// Collapsed reports how many calls joined another caller's flight.
func (g *flightGroup) Collapsed() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.collapsed
}

// Wait blocks until no computation is running, or until ctx ends, and
// returns ctx's error in that case.
func (g *flightGroup) Wait(ctx context.Context) error {
	g.mu.Lock()
	if g.running == 0 {
		g.mu.Unlock()
		return nil
	}
	done := make(chan struct{})
	g.idle = append(g.idle, done)
	g.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Package flight implements request coalescing (singleflight): when N
// callers concurrently ask for the same key, exactly one of them — the
// leader — executes the function, and the other N-1 wait and share its
// result. This is the flash-crowd primitive behind the serving tier: a
// cold cache miss hit by correlated demand must cost one upstream pull
// (one origin fetch, one re-sanitization, one delta computation), not N
// identical ones that would melt the layer below exactly when it is
// busiest.
//
// The design mirrors golang.org/x/sync/singleflight (which this module
// deliberately does not depend on), with two differences: the group is
// generic over the result type, so callers share verified []byte or
// struct results without type assertions, and Do reports whether the
// caller was the leader — the serving tiers count followers separately
// (the "coalesced" metrics) because they are precisely the requests the
// coalescing saved.
package flight

import (
	"context"
	"errors"
	"sync"
)

// ErrLeaderPanicked is returned to waiters whose flight leader
// panicked out of fn. The panic itself propagates on the leader's
// goroutine (where the real stack trace is); waiters fail cleanly and
// may retry, starting a fresh flight.
var ErrLeaderPanicked = errors.New("flight: leader panicked during coalesced call")

// call is one in-flight execution of fn for a key.
type call[V any] struct {
	done chan struct{} // closed when val/err are final
	// ctx is the leader's context, recorded under the group lock at
	// registration so followers can read it race-free — the tracing
	// layer uses it to link a follower's span to the leader's span
	// (coalesced=true) instead of inventing an upstream call that
	// never happened.
	ctx context.Context
	val V
	err error
}

// Group coalesces concurrent calls by key. The zero value is ready to
// use. Results are shared by reference: callers must treat a shared
// result as immutable (copy before mutating).
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

// Do executes fn for key, unless another call for the same key is
// already in flight, in which case it waits for that call and shares
// its result. leader reports whether this caller executed fn itself.
//
// The result is handed to every waiter verbatim — including the error,
// so a failed leader fails its whole cohort (each follower retries on
// its own schedule, which is the correct shed behavior under a flash
// crowd: one upstream failure must not be amplified into N retries in
// lockstep). The key is forgotten as soon as the call completes; a
// caller arriving after that starts a fresh flight.
func (g *Group[V]) Do(key string, fn func() (V, error)) (v V, leader bool, err error) {
	v, _, leader, err = g.DoCtx(context.Background(), key, func(context.Context) (V, error) { return fn() })
	return v, leader, err
}

// DoCtx is Do with context plumbing for tracing: fn receives the
// leader's ctx, and every caller gets leaderCtx — the context the
// leader registered with. The leader's own leaderCtx is just its ctx;
// a follower uses leaderCtx to link its span to the leader's span
// rather than pretending it made the upstream call itself. The
// coalescing contract is unchanged from Do; cancellation of a
// follower's ctx does NOT detach it from the flight (results are
// shared verbatim, exactly as in Do).
func (g *Group[V]) DoCtx(ctx context.Context, key string, fn func(context.Context) (V, error)) (v V, leaderCtx context.Context, leader bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*call[V])
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.ctx, false, c.err
	}
	c := &call[V]{done: make(chan struct{}), ctx: ctx}
	g.calls[key] = c
	g.mu.Unlock()

	// The leader runs fn outside the group lock, so flights for
	// different keys proceed concurrently. The unwind path is a defer:
	// a panicking fn must still unregister the flight and wake its
	// waiters, or every current AND future caller for this key would
	// block forever on a flight nobody is flying (each one pinning an
	// admission slot — a single latent panic would slowly drain the
	// daemon to a standstill). Forget the key before closing done: a
	// waiter woken by the close must not race a new caller into
	// joining this completed flight.
	completed := false
	defer func() {
		if !completed {
			c.err = ErrLeaderPanicked
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn(ctx)
	completed = true
	return c.val, ctx, true, c.err
}

package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoCoalesces pins the core contract: K concurrent calls for one
// key execute fn exactly once, exactly one caller is the leader, and
// every caller sees the same result.
func TestDoCoalesces(t *testing.T) {
	const k = 64
	var g Group[int]
	var execs, leaders atomic.Int64
	gate := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, leader, err := g.Do("key", func() (int, error) {
				execs.Add(1)
				<-gate // hold the flight open until all K have joined
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			if leader {
				leaders.Add(1)
			}
			results[i] = v
		}(i)
	}
	awaitJoined(t, &g, "key", k)
	close(gate)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	if got := leaders.Load(); got != 1 {
		t.Fatalf("%d leaders, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
}

// TestDoDistinctKeys verifies flights for different keys run
// independently (and concurrently: the first flight is held open while
// the second completes).
func TestDoDistinctKeys(t *testing.T) {
	var g Group[string]
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := g.Do("a", func() (string, error) {
			close(started)
			<-gate
			return "A", nil
		})
		if err != nil || v != "A" {
			t.Errorf("key a: %q, %v", v, err)
		}
	}()
	<-started
	v, leader, err := g.Do("b", func() (string, error) { return "B", nil })
	if err != nil || v != "B" || !leader {
		t.Fatalf("key b: %q leader=%v err=%v", v, leader, err)
	}
	if a, b := g.Joined("a"), g.Joined("b"); a != 1 || b != 0 {
		t.Fatalf("joined a=%d b=%d, want 1 and 0 (key a still held, b done)", a, b)
	}
	close(gate)
	<-done
	if a := g.Joined("a"); a != 0 {
		t.Fatalf("joined a=%d after completion, want 0", a)
	}
}

// TestDoLeaderPanic verifies a panicking leader does not poison the
// key: waiters are released with ErrLeaderPanicked instead of blocking
// forever, the panic propagates on the leader's goroutine, and the
// next call for the key starts a fresh flight.
func TestDoLeaderPanic(t *testing.T) {
	var g Group[int]
	joined := make(chan struct{})
	boom := make(chan struct{})

	waiterDone := make(chan error, 1)
	go func() {
		<-joined
		_, _, err := g.Do("k", func() (int, error) { t.Error("waiter became leader"); return 0, nil })
		waiterDone <- err
	}()

	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		g.Do("k", func() (int, error) {
			close(joined)
			<-boom
			panic("leader exploded")
		})
	}()

	// Let the waiter join the open flight, then detonate the leader.
	awaitJoined(t, &g, "k", 2)
	close(boom)

	if p := <-leaderDone; p != "leader exploded" {
		t.Fatalf("leader panic = %v, want to propagate", p)
	}
	select {
	case err := <-waiterDone:
		if !errors.Is(err, ErrLeaderPanicked) {
			t.Fatalf("waiter err = %v, want ErrLeaderPanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after leader panic — flight never unwound")
	}
	// The key is free again: a fresh call runs normally.
	v, leader, err := g.Do("k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 || !leader {
		t.Fatalf("post-panic call: v=%d leader=%v err=%v", v, leader, err)
	}
	if n := g.Joined("k"); n != 0 {
		t.Fatalf("joined = %d, want 0", n)
	}
}

// TestDoSharesError verifies a failed leader fails its cohort with the
// same error, and the key is forgotten so the next call retries fresh.
func TestDoSharesError(t *testing.T) {
	var g Group[int]
	sentinel := errors.New("upstream down")
	calls := 0
	_, _, err := g.Do("k", func() (int, error) { calls++; return 0, sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	v, leader, err := g.Do("k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 || !leader {
		t.Fatalf("retry: v=%d leader=%v err=%v", v, leader, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (no stale cached flight)", calls)
	}
}

// TestDoCtxExposesLeaderContext pins the tracing hook: fn runs with
// the leader's context, and every follower receives that same context
// back, so it can find the leader's span.
func TestDoCtxExposesLeaderContext(t *testing.T) {
	type ctxKey struct{}
	var g Group[int]
	gate := make(chan struct{})
	leaderIn := make(chan struct{})

	lctx := context.WithValue(context.Background(), ctxKey{}, "leader")
	var fnCtx atomic.Value
	go func() {
		_, gotCtx, leader, err := g.DoCtx(lctx, "key", func(ctx context.Context) (int, error) {
			fnCtx.Store(ctx)
			close(leaderIn)
			<-gate
			return 1, nil
		})
		if err != nil || !leader {
			t.Errorf("leader: leader=%v err=%v", leader, err)
		}
		if gotCtx != lctx {
			t.Error("leader did not get its own ctx back")
		}
	}()
	<-leaderIn

	fctx := context.WithValue(context.Background(), ctxKey{}, "follower")
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, gotCtx, leader, err := g.DoCtx(fctx, "key", func(context.Context) (int, error) {
			t.Error("follower executed fn")
			return 0, nil
		})
		if err != nil || leader || v != 1 {
			t.Errorf("follower: v=%d leader=%v err=%v", v, leader, err)
		}
		if gotCtx == nil || gotCtx.Value(ctxKey{}) != "leader" {
			t.Errorf("follower leaderCtx value = %v, want leader's", gotCtx)
		}
	}()
	// Release the leader once the follower shares its flight.
	awaitJoined(t, &g, "key", 2)
	close(gate)
	<-done

	if got := fnCtx.Load(); got != lctx {
		t.Error("fn did not run with the leader's ctx")
	}
}

package edge

import (
	"context"
	"sync"
	"testing"
	"time"

	"tsr/internal/trace"
)

// traceWorld builds a two-tier edge chain over the shared edge world:
// client -> outer edge -> inner edge -> origin repo, all in-process,
// with a HeadEvery=1 tracer so every trace is kept.
func traceWorld(t *testing.T) (*edgeWorld, *Replica, *Replica, *trace.Tracer) {
	t.Helper()
	w := newEdgeWorld(t)
	inner := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, TrustRing: w.trust()}
	outer := &Replica{RepoID: w.tenant.ID, Origin: inner, TrustRing: w.trust()}
	if err := inner.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := outer.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return w, inner, outer, trace.NewTracer(trace.Config{Tier: "client", HeadEvery: 1})
}

// TestTracePropagationAcrossTiers is the tentpole acceptance test for
// in-process stitching: one package fetch through a FailoverClient, a
// chained pair of edge replicas, and the origin repo must produce ONE
// trace whose four spans parent onto each other in tier order.
func TestTracePropagationAcrossTiers(t *testing.T) {
	w, _, outer, tr := traceWorld(t)
	client := &FailoverClient{
		TrustRing: w.trust(),
		Endpoints: []Endpoint{{Name: "outer", Fetcher: outer}},
	}
	// Prime the client's verified index outside the traced context so
	// the package trace below contains only the package path.
	if _, err := client.FetchIndex(); err != nil {
		t.Fatal(err)
	}

	ctx := trace.NewContext(context.Background(), tr)
	if _, err := client.FetchPackageCtx(ctx, "app"); err != nil {
		t.Fatal(err)
	}

	st := tr.Store()
	if got := st.Stats().Kept; got != 1 {
		t.Fatalf("kept %d traces, want exactly 1 (the whole chain must share one trace ID)", got)
	}
	sums := st.List()
	td, ok := st.Get(sums[0].TraceID)
	if !ok {
		t.Fatalf("trace %s listed but not retrievable", sums[0].TraceID)
	}
	wantNames := []string{"client.package", "edge.package", "edge.package", "origin.package"}
	wantTiers := []string{"client", "edge", "edge", "origin"}
	if len(td.Spans) != len(wantNames) {
		t.Fatalf("trace has %d spans (%+v), want %d", len(td.Spans), td.Spans, len(wantNames))
	}
	for i, s := range td.Spans {
		if s.TraceID != td.TraceID {
			t.Fatalf("span %d carries trace ID %s, want %s", i, s.TraceID, td.TraceID)
		}
		if s.Name != wantNames[i] {
			t.Fatalf("span %d name = %s, want %s", i, s.Name, wantNames[i])
		}
		if s.Tier != wantTiers[i] {
			t.Fatalf("span %d tier = %s, want %s", i, s.Tier, wantTiers[i])
		}
		if i == 0 {
			if s.ParentID != "" {
				t.Fatalf("root span has parent %s, want none", s.ParentID)
			}
		} else if s.ParentID != td.Spans[i-1].SpanID {
			t.Fatalf("span %d (%s) parent = %s, want %s (%s)",
				i, s.Name, s.ParentID, td.Spans[i-1].SpanID, td.Spans[i-1].Name)
		}
	}
}

// TestCoalescedFollowerLinksLeaderTrace pins the coalescing contract:
// when two concurrent cold misses for one package collapse into a
// single origin pull, the follower's trace must not fabricate an
// origin round trip — it records a coalesced link naming the leader's
// trace and span instead.
func TestCoalescedFollowerLinksLeaderTrace(t *testing.T) {
	w := newEdgeWorld(t)
	tr := trace.NewTracer(trace.Config{Tier: "edge", HeadEvery: 1})
	counted := &countPulls{Origin: w.tenant}
	gated := &gatedOrigin{
		Origin:  counted,
		pkgGate: make(chan struct{}), pkgHit: make(chan struct{}),
	}
	rep := &Replica{RepoID: "r", Origin: gated, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Hold the leader's origin pull open until the follower has joined
	// the flight (the same 50ms window the coalescing tests use).
	go func() {
		<-gated.pkgHit
		time.Sleep(50 * time.Millisecond)
		close(gated.pkgGate)
	}()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := trace.NewContext(context.Background(), tr)
			_, errs[i] = rep.FetchPackageCtx(ctx, "app")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("requester %d: %v", i, err)
		}
	}
	if counted.pulls != 1 {
		t.Fatalf("%d origin pulls, want exactly 1", counted.pulls)
	}

	st := tr.Store()
	if got := st.Stats().Kept; got != 2 {
		t.Fatalf("kept %d traces, want 2 (leader and follower each root their own)", got)
	}
	var leader, follower *struct {
		traceID string
		spanID  string
		link    *trace.Link
	}
	for _, sum := range st.List() {
		td, ok := st.Get(sum.TraceID)
		if !ok {
			t.Fatalf("trace %s listed but not retrievable", sum.TraceID)
		}
		root := td.Spans[0]
		if root.Name != "edge.package" {
			t.Fatalf("root span = %s, want edge.package", root.Name)
		}
		got := &struct {
			traceID string
			spanID  string
			link    *trace.Link
		}{td.TraceID, root.SpanID, root.Link}
		if root.Link != nil {
			follower = got
		} else {
			leader = got
		}
	}
	if leader == nil || follower == nil {
		t.Fatal("expected one leader trace (no link) and one follower trace (coalesced link)")
	}
	if !follower.link.Coalesced {
		t.Fatal("follower link not marked coalesced")
	}
	if follower.link.TraceID != leader.traceID || follower.link.SpanID != leader.spanID {
		t.Fatalf("follower links to %s/%s, want the leader's span %s/%s",
			follower.link.TraceID, follower.link.SpanID, leader.traceID, leader.spanID)
	}
}

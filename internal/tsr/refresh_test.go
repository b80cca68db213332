package tsr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tsr/internal/apk"
	"tsr/internal/enclave"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/mirror"
	"tsr/internal/netsim"
	"tsr/internal/policy"
	"tsr/internal/quorum"
	"tsr/internal/repo"
	"tsr/internal/store"
)

// populate publishes n packages; every third creates an account so the
// plan scan and preamble rewriting are exercised, and one package is
// unsupported (rejected).
func populate(t *testing.T, w *world, n int) (supported int) {
	t.Helper()
	var pkgs []*apk.Package
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("pkg%02d", i)
		script := ""
		switch {
		case i == n-1:
			script = "add-shell /bin/zsh\n" // unsupported: rejected
		case i%3 == 0:
			script = fmt.Sprintf("addgroup -S g%02d\nadduser -S -G g%02d u%02d\n", i, i, i)
		}
		pkgs = append(pkgs, pkgWithScript(name, "1.0-r0", script))
	}
	w.publish(t, pkgs...)
	return n - 1
}

// TestConcurrentRefreshPipeline drives a refresh over many changed
// packages through the worker pool (run under -race in CI), then
// asserts that repeated refreshes and a forced replan are satisfied
// from the content-addressed sanitization cache.
func TestConcurrentRefreshPipeline(t *testing.T) {
	w := newWorld(t, 3)
	supported := populate(t, w, 24)
	r := w.deploy(t)
	r.SetWorkers(8)

	stats, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 8 {
		t.Fatalf("workers = %d", stats.Workers)
	}
	if stats.Sanitized != supported || stats.Rejected != 1 || stats.CacheHits != 0 {
		t.Fatalf("cold stats = %+v", stats)
	}
	if len(stats.Errors) != 0 {
		t.Fatalf("unexpected per-package errors: %v", stats.Errors)
	}
	signed, err := r.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := signed.Verify(keys.NewRing(r.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Entries) != supported {
		t.Fatalf("index has %d entries, want %d", len(ix.Entries), supported)
	}

	// Second refresh, unchanged upstream: zero sanitizations, all
	// served from the cache.
	stats, err = r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 0 || stats.CacheHits != supported || stats.Downloaded != 0 {
		t.Fatalf("warm stats = %+v", stats)
	}
	if stats.SanitizeTime != 0 {
		t.Fatalf("warm refresh spent %v sanitizing", stats.SanitizeTime)
	}

	// Forced replan: the plan is rebuilt from scratch but hashes
	// identically, so the cache still answers everything.
	r.ForceReplan()
	stats, err = r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 0 || stats.CacheHits != supported {
		t.Fatalf("replan stats = %+v", stats)
	}

	// An account change invalidates the plan hash: everything under the
	// new preamble is a cache miss and re-sanitizes concurrently.
	w.publish(t, pkgWithScript("newacct", "1.0-r0", "adduser -S brandnew\n"))
	stats, err = r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != supported+1 || stats.CacheHits != 0 {
		t.Fatalf("post-replan stats = %+v", stats)
	}

	// Packages still verify after the concurrent rebuild.
	raw, err := r.FetchPackage("pkg00")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := apk.VerifyRaw(raw, keys.NewRing(r.PublicKey())); err != nil {
		t.Fatal(err)
	}

	totals := r.CacheStats()
	if totals.Refreshes != 4 || totals.CacheHits != int64(2*supported) {
		t.Fatalf("totals = %+v", totals)
	}
}

// flakyFetcher injects per-package download failures.
type flakyFetcher struct {
	inner PackageFetcher
	mu    *sync.Mutex
	fail  map[string]bool
}

func (f *flakyFetcher) FetchPackage(name string) ([]byte, error) {
	f.mu.Lock()
	bad := f.fail[name]
	f.mu.Unlock()
	if bad {
		return nil, fmt.Errorf("injected fetch failure for %s", name)
	}
	return f.inner.FetchPackage(name)
}

// flakyWorld is a world whose package downloads can be failed per name
// across every mirror.
func flakyWorld(t *testing.T) (*world, map[string]bool, *sync.Mutex) {
	t.Helper()
	w := &world{
		signer: keys.Shared.MustGet("alpine-distro-key"),
		store:  store.NewMem(),
	}
	w.repo = repo.New("alpine-main", w.signer)
	fail := make(map[string]bool)
	mu := &sync.Mutex{}
	byHost := make(map[string]*mirror.Mirror)
	var pol strings.Builder
	pol.WriteString("mirrors:\n")
	for i := 0; i < 3; i++ {
		host := fmt.Sprintf("https://mirror%d/", i)
		m := mirror.New(host, netsim.Europe)
		w.mirrors = append(w.mirrors, m)
		byHost[host] = m
		fmt.Fprintf(&pol, "  - hostname: %s\n", host)
	}
	pem, err := w.signer.Public().MarshalPEM()
	if err != nil {
		t.Fatal(err)
	}
	pol.WriteString("signers_keys:\n  - |-\n")
	for _, line := range strings.Split(strings.TrimRight(string(pem), "\n"), "\n") {
		pol.WriteString("    " + line + "\n")
	}
	w.policy = []byte(pol.String())

	platform, err := enclave.NewPlatform(keys.Shared.MustGet("sgx-quoting"))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{
		Platform: platform,
		TPM:      tpmForTest(t),
		Clock:    netsim.NewVirtualClock(time.Time{}),
		Link:     netsim.DefaultLinkModel(netsim.NewRNG(11)),
		Local:    netsim.Europe,
		Store:    w.store,
		EPC:      enclave.DefaultCostModel(),
		Workers:  4,
		Resolve: func(m policy.Mirror) (quorum.Source, PackageFetcher, error) {
			mm, ok := byHost[m.Hostname]
			if !ok {
				return nil, nil, fmt.Errorf("no mirror %q", m.Hostname)
			}
			return mm, &flakyFetcher{inner: mm, mu: mu, fail: fail}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.svc = svc
	return w, fail, mu
}

// TestRefreshSurvivesPerPackageFailures asserts that download failures
// of individual packages are reported in RefreshStats.Errors without
// aborting the cycle, and that the affected packages heal on later
// refreshes.
func TestRefreshSurvivesPerPackageFailures(t *testing.T) {
	w, fail, mu := flakyWorld(t)
	var pkgs []*apk.Package
	for i := 0; i < 8; i++ {
		script := ""
		if i == 0 {
			// Account-creating: a lost download of this package must not
			// shift the canonical account plan.
			script = "addgroup -S g0\nadduser -S -G g0 u0\n"
		}
		pkgs = append(pkgs, pkgWithScript(fmt.Sprintf("pkg%d", i), "1.0-r0", script))
	}
	w.publish(t, pkgs...)
	r := w.deploy(t)

	mu.Lock()
	fail["pkg3"] = true
	mu.Unlock()
	stats, err := r.Refresh()
	if err != nil {
		t.Fatalf("refresh aborted on a per-package failure: %v", err)
	}
	if stats.Sanitized != 7 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(stats.Errors) != 1 || stats.Errors[0].Name != "pkg3" ||
		!strings.Contains(stats.Errors[0].Err, "injected fetch failure") {
		t.Fatalf("errors = %v", stats.Errors)
	}
	// pkg3 never made it into the repository: a clean not-found.
	if _, err := r.FetchPackage("pkg3"); !errors.Is(err, index.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}

	// The mirror recovers: the next refresh picks pkg3 up (it is
	// unchanged upstream but has no cache entry) while the other seven
	// stay cache hits.
	mu.Lock()
	fail["pkg3"] = false
	mu.Unlock()
	stats, err = r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 1 || stats.CacheHits != 7 || len(stats.Errors) != 0 {
		t.Fatalf("healed stats = %+v", stats)
	}
	if _, err := r.FetchPackage("pkg3"); err != nil {
		t.Fatal(err)
	}

	// A failed UPDATE of an already-served package keeps the previous
	// version online, and — because the plan scan falls back to the
	// previous version's scripts — the account plan stays stable even
	// though the failed package is the one creating accounts: every
	// other package remains a cache hit instead of being re-sanitized
	// under a shifted uid/gid assignment.
	w.publish(t, pkgWithScript("pkg0", "1.1-r0", "addgroup -S g0\nadduser -S -G g0 u0\n"))
	mu.Lock()
	fail["pkg0"] = true
	mu.Unlock()
	stats, err = r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Errors) != 1 || stats.Errors[0].Name != "pkg0" {
		t.Fatalf("errors = %v", stats.Errors)
	}
	if stats.Sanitized != 0 || stats.CacheHits != 7 {
		t.Fatalf("plan shifted on a failed account-package update: %+v", stats)
	}
	signed, err := r.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := signed.Verify(keys.NewRing(r.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	e, err := ix.Lookup("pkg0")
	if err != nil || e.Version != "1.0-r0" {
		t.Fatalf("pkg0 entry = %+v, %v (want previous version kept)", e, err)
	}
	// Serving the carried-forward version forces an on-demand rebuild
	// (original-only cache): it must re-sanitize against the pinned
	// previous upstream entry — not raise a spurious tamper alarm by
	// rebuilding the new version the mirrors failed to deliver.
	r.SetCacheMode(CacheOriginalOnly)
	raw, _, err := r.FetchPackageTracedCtx(context.Background(), "pkg0")
	if err != nil {
		t.Fatalf("carried-forward package unservable: %v", err)
	}
	if p, err := apk.Decode(raw); err != nil || p.Version != "1.0-r0" {
		t.Fatalf("served %+v, %v after failed update", p, err)
	}
	r.SetCacheMode(CacheBoth)

	// And it heals too.
	mu.Lock()
	fail["pkg0"] = false
	mu.Unlock()
	stats, err = r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 1 || len(stats.Errors) != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	signed, _ = r.FetchIndex()
	ix, err = signed.Verify(keys.NewRing(r.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := ix.Lookup("pkg0"); e.Version != "1.1-r0" {
		t.Fatalf("pkg0 = %+v", e)
	}
}

// TestRefreshAfterRestoreHitsCache simulates a TSR restart: state is
// sealed, wiped, and restored; the next refresh rebuilds the plan from
// scratch but re-admits every package from the sanitization cache.
func TestRefreshAfterRestoreHitsCache(t *testing.T) {
	w := newWorld(t, 3)
	supported := populate(t, w, 9)
	r := w.deploy(t)
	r.SetWorkers(4)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	sealed, err := r.SealState()
	if err != nil {
		t.Fatal(err)
	}
	// Restart: all in-memory state is gone; the plan must be rebuilt.
	r.mu.Lock()
	r.upstream, r.local, r.localSig, r.plan = nil, nil, nil, nil
	r.planHash = [32]byte{}
	r.upstreamDigest = [32]byte{}
	r.mu.Unlock()
	if err := r.RestoreState(sealed); err != nil {
		t.Fatal(err)
	}
	stats, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 0 || stats.CacheHits != supported {
		t.Fatalf("post-restore stats = %+v", stats)
	}
}

// TestHealedPackageJoinsPlan covers the plan-debt path: a new
// account-creating package whose first download fails must, once it
// heals — even with the upstream index unchanged in between — force a
// plan rebuild so its accounts enter the canonical preamble. Reusing
// the stale plan would strip its adduser commands without provisioning
// the account.
func TestHealedPackageJoinsPlan(t *testing.T) {
	w, fail, mu := flakyWorld(t)
	w.publish(t, pkgWithScript("base", "1.0-r0", "adduser -S ubase\n"))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}

	w.publish(t, pkgWithScript("newsvc", "1.0-r0", "adduser -S unew\n"))
	mu.Lock()
	fail["newsvc"] = true
	mu.Unlock()
	stats, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Errors) != 1 || stats.Errors[0].Name != "newsvc" {
		t.Fatalf("errors = %v", stats.Errors)
	}

	// Heal with an UNCHANGED upstream index. The rebuilt plan gains the
	// new account, which replans every package.
	mu.Lock()
	fail["newsvc"] = false
	mu.Unlock()
	stats, err = r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 2 || len(stats.Errors) != 0 {
		t.Fatalf("healed stats = %+v (want both packages under the new plan)", stats)
	}
	for _, name := range []string{"base", "newsvc"} {
		raw, err := r.FetchPackage(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := apk.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		s := p.Scripts["post-install"]
		if !strings.Contains(s, "ubase") || !strings.Contains(s, "unew") {
			t.Fatalf("%s sanitized under a stale plan:\n%s", name, s)
		}
	}
}

// TestCacheNoneRefreshStaysIncremental asserts that CacheNone — a
// package-serving scenario — does not turn refreshes into full
// rebuilds: unchanged packages keep their previous index entries and
// only changed packages are re-downloaded and re-sanitized.
func TestCacheNoneRefreshStaysIncremental(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t,
		pkgWithScript("a", "1.0-r0", ""),
		pkgWithScript("b", "1.0-r0", ""),
		pkgWithScript("c", "1.0-r0", ""),
	)
	r := w.deploy(t)
	r.SetCacheMode(CacheNone)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	stats, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 0 || stats.Downloaded != 0 {
		t.Fatalf("CacheNone second refresh rebuilt: %+v", stats)
	}
	w.publish(t, pkgWithScript("b", "1.1-r0", ""))
	stats, err = r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 1 || stats.Downloaded != 1 {
		t.Fatalf("CacheNone incremental refresh = %+v (want only b)", stats)
	}
	signed, err := r.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := signed.Verify(keys.NewRing(r.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Entries) != 3 {
		t.Fatalf("index = %v", ix.Names())
	}
	if e, _ := ix.Lookup("b"); e.Version != "1.1-r0" {
		t.Fatalf("b = %+v", e)
	}
}

// TestCacheEntryTamperForcesResanitize flips bytes in a sealed cache
// entry: the unseal fails, the entry is treated as a miss, and the
// package is re-sanitized to an identical result.
func TestCacheEntryTamperForcesResanitize(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", "adduser -S app\n"))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	entry, err := r.upstream.Lookup("app")
	key := r.sanCacheKey(entry.Hash, r.planHash)
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.store.Tamper(key); err != nil {
		t.Fatal(err)
	}
	r.ForceReplan()
	stats, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 1 || stats.CacheHits != 0 {
		t.Fatalf("stats after cache tamper = %+v", stats)
	}
	raw, err := r.FetchPackage("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := apk.VerifyRaw(raw, keys.NewRing(r.PublicKey())); err != nil {
		t.Fatal(err)
	}
}

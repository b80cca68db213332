package tsr

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/store"
)

// encodePkg signs and encodes a package with the world's distribution
// key (ingested packages pass the same signer-ring verification as
// mirror downloads).
func (w *world) encodePkg(t *testing.T, p *apk.Package) []byte {
	t.Helper()
	if err := apk.Sign(p, w.signer); err != nil {
		t.Fatal(err)
	}
	raw, err := apk.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRepoIDsSorted pins the RepoIDs ordering contract: callers
// (auto-refresh scheduling, /stats, CLI output) rely on a
// deterministic, sorted listing.
func TestRepoIDsSorted(t *testing.T) {
	w := newWorld(t, 3)
	for i := 0; i < 6; i++ {
		w.deploy(t)
	}
	ids := w.svc.RepoIDs()
	if len(ids) != 6 {
		t.Fatalf("deployed 6, listed %d", len(ids))
	}
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("RepoIDs not sorted: %v", ids)
	}
}

func TestDeployPolicyID(t *testing.T) {
	w := newWorld(t, 3)
	const want = "r00112233aabbccdd"
	id, _, _, err := w.svc.DeployPolicyID(w.policy, want)
	if err != nil {
		t.Fatal(err)
	}
	if id != want {
		t.Fatalf("id = %q, want %q", id, want)
	}
	if _, _, _, err := w.svc.DeployPolicyID(w.policy, want); err == nil {
		t.Fatal("duplicate id accepted")
	}
	for _, bad := range []string{"r0011", "x00112233aabbccdd", "r00112233AABBCCDD", "r00112233aabbccdd0"} {
		if _, _, _, err := w.svc.DeployPolicyID(w.policy, bad); err == nil {
			t.Fatalf("malformed id %q accepted", bad)
		}
	}
}

func TestRegisterPackagesIngest(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("upstream-pkg", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}

	batch := [][]byte{
		w.encodePkg(t, pkgWithScript("private-tool", "2.0-r0", "")),
		w.encodePkg(t, pkgWithScript("upstream-pkg", "9.9-r9", "")), // shadows upstream
		w.encodePkg(t, pkgWithScript("private-bad", "1.0-r0", "add-shell /bin/zsh\n")),
		[]byte("not a package"),
	}
	stats, err := r.RegisterPackages(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Received != 4 || stats.Registered != 1 || stats.Sanitized != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(stats.Rejected) != 3 {
		t.Fatalf("rejected = %v", stats.Rejected)
	}

	// The ingested package serves like any sanitized package and
	// verifies against the repository key.
	raw, err := r.FetchPackage("private-tool")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := apk.VerifyRaw(raw, keys.NewRing(r.PublicKey())); err != nil {
		t.Fatal(err)
	}
	// The upstream package was not clobbered by the shadowing attempt.
	ix, err := r.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ix.Verify(keys.NewRing(r.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	if e, err := decoded.Lookup("upstream-pkg"); err != nil || e.Version != "1.0-r0" {
		t.Fatalf("upstream-pkg entry = %+v, %v", e, err)
	}

	// Re-registering the identical batch is a pure cache hit and does
	// not bump the published sequence.
	seqBefore := stats.Sequence
	again, err := r.RegisterPackages(context.Background(), batch[:1])
	if err != nil {
		t.Fatal(err)
	}
	if again.Registered != 1 || again.CacheHits != 1 || again.Sanitized != 0 {
		t.Fatalf("replayed stats = %+v", again)
	}
	if again.Sequence != seqBefore {
		t.Fatalf("idempotent re-register bumped sequence %d -> %d", seqBefore, again.Sequence)
	}

	// The registration survives the next refresh: the upstream diff
	// does not list private-tool, but the index keeps serving it.
	w.publish(t, pkgWithScript("upstream-two", "1.0-r0", ""))
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FetchPackage("private-tool"); err != nil {
		t.Fatalf("registered package lost across refresh: %v", err)
	}
	if got := r.CacheStats().Ingested; got != 2 {
		t.Fatalf("ingested counter = %d, want 2", got)
	}
	regs := r.RegisteredPackages()
	if len(regs) != 1 || regs[0].Name != "private-tool" {
		t.Fatalf("registered entries = %+v", regs)
	}
}

// TestIngestCrashReplay is the acceptance crash shape: the batch is
// journaled (StageIngest), the process "crashes" before any effect
// lands, and a warm restart over the same store replays the batch to
// completion.
func TestIngestCrashReplay(t *testing.T) {
	st := store.NewMem()
	hostTPM := tpmForTest(t)
	w := newWorldCfg(t, 3, worldCfg{store: st, tpm: hostTPM, autoPersist: true})
	w.publish(t, pkgWithScript("base", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := r.StageIngest([][]byte{w.encodePkg(t, pkgWithScript("crashy", "1.0-r0", ""))}); err != nil {
		t.Fatal(err)
	}
	// Crash: the journal holds the intent, nothing was applied.
	if _, err := r.FetchPackage("crashy"); err == nil {
		t.Fatal("staged batch must not be visible before restart")
	}

	w2 := newWorldCfg(t, 3, worldCfg{store: st, tpm: hostTPM, platform: w.svc.cfg.Platform, autoPersist: true})
	restored, err := w2.svc.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || !restored[0].Warm {
		t.Fatalf("restored = %+v", restored)
	}
	if restored[0].ReplayedIngests != 1 || restored[0].ReplayErr != nil {
		t.Fatalf("replay outcome = %+v", restored[0])
	}
	r2, err := w2.svc.Repo(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := r2.FetchPackage("crashy")
	if err != nil {
		t.Fatalf("replayed package not served: %v", err)
	}
	if _, _, err := apk.VerifyRaw(raw, keys.NewRing(r2.PublicKey())); err != nil {
		t.Fatal(err)
	}
	// The journal drained: a third boot replays nothing.
	w3 := newWorldCfg(t, 3, worldCfg{store: st, tpm: hostTPM, platform: w.svc.cfg.Platform, autoPersist: true})
	restored3, err := w3.svc.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if restored3[0].ReplayedIngests != 0 {
		t.Fatalf("journal not drained: %+v", restored3[0])
	}
	// The registration is in the sealed checkpoint, not just the
	// journal: it survives further restarts on its own.
	r3, err := w3.svc.Repo(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r3.FetchPackage("crashy"); err != nil {
		t.Fatalf("registration lost after journal drain: %v", err)
	}
}

func TestIngestHTTPAndServiceStats(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("base", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	cl := &http.Client{Timeout: 10 * time.Second}

	body := EncodeIngestBody([][]byte{w.encodePkg(t, pkgWithScript("pushed", "1.0-r0", ""))})
	resp, err := cl.Post(srv.URL+"/repos/"+r.ID+"/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %s", resp.Status)
	}
	var stats IngestStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Registered != 1 {
		t.Fatalf("ingest stats = %+v", stats)
	}
	if _, err := r.FetchPackage("pushed"); err != nil {
		t.Fatal(err)
	}

	// Malformed body is a 400, not a panic or a partial apply.
	resp2, err := cl.Post(srv.URL+"/repos/"+r.ID+"/ingest", "application/octet-stream", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage ingest status = %s", resp2.Status)
	}

	// Service-level stats aggregate per-tenant counters and expose the
	// scheduler snapshot.
	resp3, err := cl.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var svcStats ServiceStats
	if err := json.NewDecoder(resp3.Body).Decode(&svcStats); err != nil {
		t.Fatal(err)
	}
	if len(svcStats.Repos) != 1 {
		t.Fatalf("stats repos = %v", svcStats.Repos)
	}
	if svcStats.Totals.Ingested != 1 || svcStats.Repos[r.ID].Ingested != 1 {
		t.Fatalf("totals = %+v", svcStats.Totals)
	}
	if svcStats.Sched.CompletedInteractive == 0 {
		t.Fatalf("sched snapshot missing completions: %+v", svcStats.Sched)
	}

	// Router-chosen placement: POST /policies?id= deploys under the
	// requested id; malformed ids are refused.
	resp4, err := cl.Post(srv.URL+"/policies?id=rfeedfacefeedface", "application/x-yaml", bytes.NewReader(w.policy))
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var dep struct {
		RepositoryID string `json:"repository_id"`
	}
	if err := json.NewDecoder(resp4.Body).Decode(&dep); err != nil {
		t.Fatal(err)
	}
	if dep.RepositoryID != "rfeedfacefeedface" {
		t.Fatalf("deployed id = %q", dep.RepositoryID)
	}
	resp5, err := cl.Post(srv.URL+"/policies?id=bogus", "application/x-yaml", bytes.NewReader(w.policy))
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus id status = %s", resp5.Status)
	}
}

// TestUndeployRemovesTenant covers the tenant-churn shape fleet soak
// composes: deploy, ingest, undeploy — durable state and pending
// journal entries must go with the tenant.
func TestUndeployRemovesTenant(t *testing.T) {
	st := store.NewMem()
	w := newWorldCfg(t, 3, worldCfg{store: st, autoPersist: true})
	w.publish(t, pkgWithScript("base", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := r.StageIngest([][]byte{w.encodePkg(t, pkgWithScript("pend", "1.0-r0", ""))}); err != nil {
		t.Fatal(err)
	}
	if err := w.svc.Undeploy(r.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := w.svc.Repo(r.ID); !errors.Is(err, ErrNoRepo) {
		t.Fatalf("repo still resolvable: %v", err)
	}
	if err := w.svc.Undeploy(r.ID); !errors.Is(err, ErrNoRepo) {
		t.Fatalf("double undeploy = %v", err)
	}
	if _, err := st.Get(MetaStoreKey(r.ID)); err == nil {
		t.Fatal("meta blob survived undeploy")
	}
	if _, err := st.Get(StateStoreKey(r.ID)); err == nil {
		t.Fatal("state blob survived undeploy")
	}
	pending, err := w.svc.journal.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("%d journal entries survived undeploy", len(pending))
	}
}

// TestSchedBoundsConcurrentTenants drives many tenants' refreshes
// through a small global pool concurrently (run under -race in CI) and
// asserts the worker bound and that every tenant completes — the
// no-starvation contract at the tsr layer.
func TestSchedBoundsConcurrentTenants(t *testing.T) {
	w := newWorldCfg(t, 3, worldCfg{workers: 4, refreshWorkers: 4, schedMaxActive: 2})
	var pkgs []*apk.Package
	for i := 0; i < 12; i++ {
		pkgs = append(pkgs, pkgWithScript(fmt.Sprintf("pkg%02d", i), "1.0-r0", ""))
	}
	w.publish(t, pkgs...)
	const tenants = 6
	repos := make([]*Repo, tenants)
	for i := range repos {
		repos[i] = w.deploy(t)
	}
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	for i, r := range repos {
		wg.Add(1)
		go func(i int, r *Repo) {
			defer wg.Done()
			_, errs[i] = r.RefreshBackgroundCtx(context.Background())
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d refresh: %v", i, err)
		}
	}
	snap := w.svc.Scheduler().Snapshot()
	if snap.PeakSlots > 4 {
		t.Fatalf("global worker bound exceeded: peak %d > 4", snap.PeakSlots)
	}
	if snap.PeakActive > 2 {
		t.Fatalf("active bound exceeded: peak %d > 2", snap.PeakActive)
	}
	if snap.CompletedBackground != tenants {
		t.Fatalf("completed = %d, want %d", snap.CompletedBackground, tenants)
	}
	if len(snap.Tenants) != tenants {
		t.Fatalf("per-tenant stats for %d tenants, want %d", len(snap.Tenants), tenants)
	}
	for _, ts := range snap.Tenants {
		if ts.Run.Count == 0 {
			t.Fatalf("tenant %s has no recorded run time", ts.Tenant)
		}
	}
	// Each tenant's index came out complete despite slot contention.
	for _, r := range repos {
		ix, err := r.FetchIndex()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := ix.Verify(keys.NewRing(r.PublicKey()))
		if err != nil {
			t.Fatal(err)
		}
		if len(decoded.Entries) != 12 {
			t.Fatalf("tenant %s index has %d entries", r.ID, len(decoded.Entries))
		}
	}
}

// StageIngest journals a batch WITHOUT processing it — the crash shape
// these tests exercise: the intent is durable, the effects never
// happened, and the next warm restart replays the batch to completion.
// The service must have a journal.
func (r *Repo) StageIngest(raws [][]byte) error {
	sealed, err := r.sealIngestPayload(raws)
	if err != nil {
		return err
	}
	_, err = r.svc.journal.Append(sealed)
	return err
}

// RegisteredPackages lists the operator-registered entries (original
// bytes) in name order.
func (r *Repo) RegisteredPackages() []index.Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.registeredEntriesLocked()
}

// EncodeIngestBody frames a batch for POST /repos/{id}/ingest: each
// package is length-prefixed with the repo's chunk framing. It is the
// tests' reference encoder for DecodeIngestBody.
func EncodeIngestBody(raws [][]byte) []byte {
	var buf bytes.Buffer
	for _, raw := range raws {
		writeChunk(&buf, raw)
	}
	return buf.Bytes()
}

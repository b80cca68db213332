package experiments

//lint:file-allow detrand crash-restart reports real cold-init vs warm-restart wall times; wall-clock by design

import (
	"fmt"
	"os"
	"time"

	"tsr/internal/edge"
	"tsr/internal/enclave"
	"tsr/internal/keys"
	"tsr/internal/store"
	"tsr/internal/tpm"
	"tsr/internal/tsr"
)

// RestartResult is the measured outcome of one crash-restart run.
type RestartResult struct {
	// ColdInit is the first life's deploy + initial refresh (includes
	// every sanitization).
	ColdInit time.Duration
	// WarmRestart is the second life's restore: reopen + scrub the
	// data dir, rebuild the service, RestoreAll to a published index.
	WarmRestart time.Duration
	// Speedup is ColdInit / WarmRestart.
	Speedup float64
	// Resanitized counts sanitizations performed to come back up
	// (must be 0: the whole point of the durable tier).
	Resanitized int64
	// PostRefreshSanitized / PostRefreshCacheHits describe the first
	// refresh after the restart: unchanged upstream means 0 / all.
	PostRefreshSanitized int
	PostRefreshCacheHits int
	// RollbackDetected is true when restoring a rolled-back data dir
	// tripped ErrRollback.
	RollbackDetected bool
	// EdgeResumedDelta is true when a restarted tsredge-style replica
	// came back from its persisted index and caught up with a DELTA
	// sync (no full index fetch).
	EdgeResumedDelta bool
}

// CrashRestartRun builds a deployment on a disk-backed store, kills
// it, restarts over the same data dir, and measures what the durable
// tier buys: restart cost collapsing from a full re-sanitization to a
// scrub-and-unseal, plus the §5.5 rollback rejection and the edge
// replica's delta-sync resume.
func CrashRestartRun(cfg Config) (*RestartResult, error) {
	cfg = cfg.withDefaults()
	dir, err := os.MkdirTemp("", "tsr-restart-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	edgeDir, err := os.MkdirTemp("", "tsr-restart-edge-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(edgeDir)

	// Host hardware that survives the "crash": platform (CPU sealing
	// root) and TPM (NV counters). The store handle does NOT survive —
	// each life reopens and re-scrubs the directory.
	platform, err := enclave.NewPlatform(keys.Shared.MustGet("exp-quoting"))
	if err != nil {
		return nil, err
	}
	hostTPM := tpm.New(keys.Shared.MustGet("exp-host-tpm"))
	openStore := func() (*store.FS, error) {
		return store.OpenFS(dir, store.FSOptions{})
	}

	// --- first life: cold init --------------------------------------
	// Timed region: what the SERVICE does to start serving — policy
	// deploy plus the initial full-sanitization refresh. Regenerating
	// the synthetic upstream world is simulation bootstrap, identical
	// in every life, and excluded from both sides of the comparison.
	st1, err := openStore()
	if err != nil {
		return nil, err
	}
	w1, err := NewWorldWith(cfg, nil, false, WorldDeps{
		Store: st1, TPM: hostTPM, Platform: platform, AutoPersist: true, SkipDeploy: true,
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	repoID, _, _, err := w1.Service.DeployPolicy(w1.PolicyRaw)
	if err != nil {
		return nil, err
	}
	tenant1, err := w1.Service.Repo(repoID)
	if err != nil {
		return nil, err
	}
	if _, err := tenant1.Refresh(); err != nil {
		return nil, err
	}
	res := &RestartResult{ColdInit: time.Since(t0)}
	w1.Tenant = tenant1
	_, wantTag, err := tenant1.FetchIndexTagged()
	if err != nil {
		return nil, err
	}

	// An edge replica on its own durable store, synced and warmed.
	edgeStore1, err := store.OpenFS(edgeDir, store.FSOptions{})
	if err != nil {
		return nil, err
	}
	rep1 := &edge.Replica{RepoID: repoID, Origin: w1.Tenant, Cache: edgeStore1, PersistIndex: true}
	if err := rep1.Sync(); err != nil {
		return nil, err
	}

	// --- crash + second life: warm restart --------------------------
	// Timed region: reopen + scrub the data dir, then RestoreAll. The
	// (untimed) world regeneration between the two segments is the
	// same simulation bootstrap excluded from the cold side.
	t1 := time.Now()
	st2, err := openStore()
	if err != nil {
		return nil, err
	}
	scrubTime := time.Since(t1)
	w2, err := NewWorldWith(cfg, nil, false, WorldDeps{
		Store: st2, TPM: hostTPM, Platform: platform, AutoPersist: true, SkipDeploy: true,
	})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	restored, err := w2.Service.RestoreAll()
	if err != nil {
		return nil, err
	}
	res.WarmRestart = scrubTime + time.Since(t2)
	if res.WarmRestart > 0 {
		res.Speedup = float64(res.ColdInit) / float64(res.WarmRestart)
	}
	if len(restored) != 1 || !restored[0].Warm {
		return nil, fmt.Errorf("crash-restart: RestoreAll = %+v, want one warm repository", restored)
	}
	tenant2, err := w2.Service.Repo(repoID)
	if err != nil {
		return nil, err
	}
	_, gotTag, err := tenant2.FetchIndexTagged()
	if err != nil {
		return nil, err
	}
	if gotTag != wantTag {
		return nil, fmt.Errorf("crash-restart: restored index tag %s != %s", gotTag, wantTag)
	}
	res.Resanitized = tenant2.CacheStats().Sanitized

	// First refresh after restart: the persisted sealed sancache turns
	// it into a no-op.
	rstats, err := tenant2.Refresh()
	if err != nil {
		return nil, err
	}
	res.PostRefreshSanitized = rstats.Sanitized
	res.PostRefreshCacheHits = rstats.CacheHits

	// Restarted edge replica: load the persisted index, then catch up
	// with the origin's post-restart generation via delta sync.
	edgeStore2, err := store.OpenFS(edgeDir, store.FSOptions{})
	if err != nil {
		return nil, err
	}
	rep2 := &edge.Replica{RepoID: repoID, Origin: tenant2, Cache: edgeStore2, PersistIndex: true}
	if err := rep2.LoadState(); err != nil {
		return nil, err
	}
	if err := rep2.Sync(); err != nil {
		return nil, err
	}
	es := rep2.Stats()
	res.EdgeResumedDelta = es.FullSyncs == 0 && es.FullFallbacks == 0

	// --- rollback attack --------------------------------------------
	// The adversary saved the (sealed) checkpoint of the first life
	// and plays it back over the newer one left by the refresh above.
	oldCheckpoint, err := st2.Get(tsr.StateStoreKey(repoID))
	if err != nil {
		return nil, err
	}
	// Advance the trusted state: a publish reserves its sequence from
	// the TPM counter (and AutoPersist seals the new checkpoint), so
	// the saved blob's sealed counter is now behind the TPM's.
	if _, err := tenant2.Refresh(); err != nil {
		return nil, err
	}
	if err := st2.Put(tsr.StateStoreKey(repoID), oldCheckpoint); err != nil {
		return nil, err
	}
	st3, err := openStore()
	if err != nil {
		return nil, err
	}
	w3, err := NewWorldWith(cfg, nil, false, WorldDeps{
		Store: st3, TPM: hostTPM, Platform: platform, AutoPersist: true, SkipDeploy: true,
	})
	if err != nil {
		return nil, err
	}
	restored3, err := w3.Service.RestoreAll()
	if err != nil {
		return nil, err
	}
	res.RollbackDetected = len(restored3) == 1 && restored3[0].RolledBack()
	return res, nil
}

// CrashRestart is the registered experiment: the durable
// content-addressed store under crash, restart, and rollback.
func CrashRestart(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.Scale = minFloat(cfg.Scale, 0.01)
	res, err := CrashRestartRun(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Crash-restart: durable store warm boot (tsrd/tsredge -data-dir)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"cold init (deploy + full sanitization)", fmtDuration(res.ColdInit)},
			{"warm restart (scrub + unseal + publish)", fmtDuration(res.WarmRestart)},
			{"speedup", fmt.Sprintf("%.0fx", res.Speedup)},
			{"packages re-sanitized at restart", fmt.Sprintf("%d", res.Resanitized)},
			{"first refresh after restart", fmt.Sprintf("%d sanitized / %d sancache hits", res.PostRefreshSanitized, res.PostRefreshCacheHits)},
			{"edge restart resumed via delta sync", fmt.Sprintf("%v (no full index fetch)", res.EdgeResumedDelta)},
			{"rolled-back data dir rejected (ErrRollback)", fmt.Sprintf("%v", res.RollbackDetected)},
		},
		Notes: []string{
			"disk state is untrusted: blobs re-verify against signed indexes, metadata unseals under the enclave key,",
			"and the TPM monotonic counter (host hardware, outside the data dir) refuses replayed checkpoints.",
		},
	}
	return t, nil
}

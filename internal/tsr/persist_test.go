package tsr

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tsr/internal/enclave"
	"tsr/internal/keys"
	"tsr/internal/store"
	"tsr/internal/tpm"
)

// persistWorld builds a world on a disk store with AutoPersist, plus
// the host-side pieces (platform seal root, TPM) that survive a
// process restart in a real deployment.
type persistHost struct {
	dir      string
	platform *enclave.Platform
	tpm      *tpm.TPM
}

func newPersistHost(t *testing.T) *persistHost {
	t.Helper()
	platform, err := enclave.NewPlatform(keys.Shared.MustGet("sgx-quoting"))
	if err != nil {
		t.Fatal(err)
	}
	return &persistHost{
		dir:      t.TempDir(),
		platform: platform,
		tpm:      tpm.New(keys.Shared.MustGet("persist-tpm-ak")),
	}
}

func (h *persistHost) openStore(t *testing.T) *store.FS {
	t.Helper()
	st, err := store.OpenFS(h.dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// boot is one "process start": a fresh service over the (re-scrubbed)
// disk store, with the host-persistent platform and TPM.
func (h *persistHost) boot(t *testing.T) *world {
	t.Helper()
	return newWorldCfg(t, 2, worldCfg{
		store:       h.openStore(t),
		tpm:         h.tpm,
		platform:    h.platform,
		autoPersist: true,
	})
}

// TestWarmRestartServesWithoutResanitization: deploy + refresh on a
// disk store, "kill" the process, boot a fresh service over the same
// data dir, RestoreAll — the restored repository serves the same
// signed index immediately and the next refresh is all cache hits.
func TestWarmRestartServesWithoutResanitization(t *testing.T) {
	h := newPersistHost(t)
	w1 := h.boot(t)
	w1.publish(t,
		pkgWithScript("app", "1.0-r0", ""),
		pkgWithScript("svc", "1.0-r0", "adduser -S svc\n"),
	)
	r1 := w1.deploy(t)
	stats, err := r1.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized == 0 {
		t.Fatal("cold refresh sanitized nothing")
	}
	_, wantTag, err := r1.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantPkg, err := r1.FetchPackage("app")
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new world over the same dir/TPM/platform. The
	// mirror fleet is rebuilt with the same (pooled) signer key and the
	// same deterministic packages, as a restarted tsrd would see the
	// same upstream world.
	w2 := h.boot(t)
	w2.publish(t,
		pkgWithScript("app", "1.0-r0", ""),
		pkgWithScript("svc", "1.0-r0", "adduser -S svc\n"),
	)
	restored, err := w2.svc.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || !restored[0].Warm || restored[0].ID != r1.ID {
		t.Fatalf("RestoreAll = %+v", restored)
	}
	r2, err := w2.svc.Repo(r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, gotTag, err := r2.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gotTag != wantTag {
		t.Fatalf("restored index tag = %s, want %s", gotTag, wantTag)
	}
	got, err := r2.FetchPackage("app")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantPkg) {
		t.Fatal("restored package bytes differ")
	}
	if cs := r2.CacheStats(); cs.Sanitized != 0 {
		t.Fatalf("warm restart sanitized %d packages", cs.Sanitized)
	}
	// The next refresh re-enters every package from the persisted
	// sealed sancache: zero sanitizations.
	stats2, err := r2.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Sanitized != 0 || stats2.CacheHits == 0 {
		t.Fatalf("post-restart refresh: %d sanitized, %d cache hits", stats2.Sanitized, stats2.CacheHits)
	}
}

// TestDiskTamperHealsOnServe: a root adversary rewriting a sanitized
// blob on disk (consistently with the frame CRC, so the store cannot
// tell) is caught by the §5.5 hash re-verification and healed by
// on-demand re-sanitization.
func TestDiskTamperHealsOnServe(t *testing.T) {
	h := newPersistHost(t)
	w := h.boot(t)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	entry, err := r.local.Lookup("app")
	if err != nil {
		t.Fatal(err)
	}
	key := r.sanitizedKey("app", entry.Hash)
	// The adversary rewrites the entry THROUGH the store, i.e. with a
	// valid frame and CRC — only the content hash check can catch it.
	if err := w.backing.Put(key, []byte("malicious payload")); err != nil {
		t.Fatal(err)
	}
	raw, res, err := r.FetchPackageTracedCtx(context.Background(), "app")
	if err != nil {
		t.Fatalf("tampered entry not healed: %v", err)
	}
	if res.From != ServedOriginalCache && res.From != ServedMirror {
		t.Fatalf("served from %v, want re-sanitization path", res.From)
	}
	if int64(len(raw)) != entry.Size {
		t.Fatalf("healed bytes wrong size: %d != %d", len(raw), entry.Size)
	}
	// Healed in place: the next read hits the repaired cache.
	_, res2, err := r.FetchPackageTracedCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	if res2.From != ServedSanitizedCache {
		t.Fatalf("second read served from %v, want sanitized cache", res2.From)
	}
}

// TestDataDirRollbackTripsErrRollback: the §5.5 rollback attack against
// the durable tier. The adversary snapshots the whole data dir after
// refresh N, lets refresh N+1 happen (TPM counter advances), then
// restores the old dir and restarts. The TPM monotonic counter — which
// lives in host hardware, not in the rolled-back dir — rejects the
// stale checkpoint.
func TestDataDirRollbackTripsErrRollback(t *testing.T) {
	h := newPersistHost(t)
	w1 := h.boot(t)
	w1.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r1 := w1.deploy(t)
	if _, err := r1.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Adversary snapshots the data dir (checkpoint N).
	snapDir := t.TempDir()
	copyTree(t, h.dir, snapDir)
	// Refresh N+1 over a changed upstream: new checkpoint, counter up.
	w1.publish(t, pkgWithScript("app", "1.1-r0", ""))
	if _, err := r1.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Rollback: replace the data dir contents with the old snapshot.
	if err := os.RemoveAll(h.dir); err != nil {
		t.Fatal(err)
	}
	copyTree(t, snapDir, h.dir)

	w2 := h.boot(t)
	w2.publish(t, pkgWithScript("app", "1.1-r0", ""))
	restored, err := w2.svc.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 {
		t.Fatalf("RestoreAll = %+v", restored)
	}
	if restored[0].Warm || !errors.Is(restored[0].Err, ErrRollback) {
		t.Fatalf("rolled-back dir restored as %+v, want ErrRollback", restored[0])
	}
	if !restored[0].RolledBack() {
		t.Fatal("RolledBack() = false")
	}
	// The repository is deployed but cold: serving refuses until the
	// next refresh rebuilds trusted state.
	r2, err := w2.svc.Repo(r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.FetchIndex(); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("cold repo FetchIndex = %v", err)
	}
	if _, err := r2.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.FetchIndex(); err != nil {
		t.Fatalf("repo did not heal after refresh: %v", err)
	}
}

// TestRestoreSkipsDeletedCheckpoint: deleting the sealed blobs (the
// denial attack) degrades restart to cold, never to wrong data.
func TestRestoreSkipsDeletedCheckpoint(t *testing.T) {
	h := newPersistHost(t)
	w1 := h.boot(t)
	w1.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r1 := w1.deploy(t)
	if _, err := r1.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := w1.backing.Delete(StateStoreKey(r1.ID)); err != nil {
		t.Fatal(err)
	}
	w2 := h.boot(t)
	w2.publish(t, pkgWithScript("app", "1.0-r0", ""))
	restored, err := w2.svc.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].Warm || restored[0].Err == nil {
		t.Fatalf("RestoreAll = %+v, want one cold repo", restored)
	}
	r2, err := w2.svc.Repo(r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// TestTamperedCheckpointComesUpCold: flipping bytes inside the sealed
// state blob breaks the AES-GCM seal; the repository comes up cold
// with an explicit error instead of trusting the blob.
func TestTamperedCheckpointComesUpCold(t *testing.T) {
	h := newPersistHost(t)
	w1 := h.boot(t)
	w1.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r1 := w1.deploy(t)
	if _, err := r1.Refresh(); err != nil {
		t.Fatal(err)
	}
	blob, err := w1.backing.Get(StateStoreKey(r1.ID))
	if err != nil {
		t.Fatal(err)
	}
	blob = append([]byte(nil), blob...) // a Get result is read-only
	blob[len(blob)/2] ^= 0xFF
	if err := w1.backing.Put(StateStoreKey(r1.ID), blob); err != nil {
		t.Fatal(err)
	}
	w2 := h.boot(t)
	restored, err := w2.svc.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].Warm || restored[0].Err == nil {
		t.Fatalf("RestoreAll = %+v, want tampered checkpoint rejected", restored)
	}
}

// copyTree copies a directory recursively (the adversary's dir
// snapshot/restore primitive).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, info.Mode())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode())
	})
	if err != nil {
		t.Fatal(err)
	}
}

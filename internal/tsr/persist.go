package tsr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"tsr/internal/keys"
	"tsr/internal/policy"
	"tsr/internal/store"
)

// Durable warm restart (§5.5 applied to the whole service).
//
// With Config.AutoPersist set, the service journals everything a
// restarted process needs into the (untrusted!) Store, alongside the
// package caches:
//
//	tsrmeta/<id>   sealed {repo id, policy bytes, signing key} —
//	               written once at DeployPolicy;
//	tsrstate/<id>  the SealState blob (indexes + TPM monotonic
//	               counter) — rewritten after every successful Refresh.
//
// Both blobs are AES-GCM sealed to the enclave identity, so the root
// adversary who owns the store can delete them (degrading restart to
// cold) but cannot forge or modify them; and because each state blob
// embeds the TPM monotonic counter value at its checkpoint, replaying
// an older data dir is caught by RestoreState (ErrRollback) — the disk
// can lie about the past, the counter cannot.
//
// RestoreAll is the boot path: it scans the store for meta blobs,
// re-creates each tenant repository with its original id, policy, and
// signing key, and restores the newest checkpoint into a published
// snapshot. A warm repository serves its previous signed index — and,
// via the persisted byte caches and sealed sancache entries, answers
// package requests and the next refresh without re-sanitizing anything.

// Store key prefixes for persisted service state. They live outside
// every repository's "<id>/..." cache namespace.
const (
	metaKeyPrefix  = "tsrmeta/"
	stateKeyPrefix = "tsrstate/"
)

// MetaStoreKey returns the store key of a repository's sealed metadata.
func MetaStoreKey(id string) string { return metaKeyPrefix + id }

// StateStoreKey returns the store key of a repository's sealed
// checkpoint (used by experiments to play rollback attacks).
func StateStoreKey(id string) string { return stateKeyPrefix + id }

// counterID derives the repository's TPM monotonic counter index. Each
// tenant gets its own NV counter so sealing state for one repository
// does not invalidate every other tenant's checkpoint.
func (r *Repo) counterID() uint32 {
	h := fnv.New32a()
	h.Write([]byte("tsr-mc/" + r.ID))
	return h.Sum32()
}

// persistMeta seals the repository's identity — id, policy, signing
// key — and writes it under the meta key. Called once at deploy time.
func (s *Service) persistMeta(r *Repo, policyRaw []byte) error {
	privPEM, err := r.signKey.MarshalPrivatePEM()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	writeChunk(&buf, []byte(r.ID))
	writeChunk(&buf, policyRaw)
	writeChunk(&buf, privPEM)
	sealed, err := s.Seal(buf.Bytes())
	if err != nil {
		return err
	}
	return s.cfg.Store.Put(MetaStoreKey(r.ID), sealed)
}

// decodeMeta parses an unsealed meta blob.
func decodeMeta(blob []byte) (id string, policyRaw, privPEM []byte, err error) {
	buf := bytes.NewReader(blob)
	rawID, err := readChunk(buf)
	if err != nil {
		return "", nil, nil, err
	}
	policyRaw, err = readChunk(buf)
	if err != nil {
		return "", nil, nil, err
	}
	privPEM, err = readChunk(buf)
	if err != nil {
		return "", nil, nil, err
	}
	return string(rawID), policyRaw, privPEM, nil
}

// Checkpoint seals the repository's current state, with the TPM
// monotonic counter value its last publish reserved, and writes it to
// the store. Refresh calls it automatically under AutoPersist; it is
// exported for operators (and tests) that want an explicit save point.
//
// The counter advances when a sequence is reserved, BEFORE the index
// is signed and long before the blob is written, deliberately: a crash
// (or failed Put) in between leaves a disk checkpoint whose counter is
// behind the hardware, which the next restore refuses exactly like a
// rollback. That costs one cold start after a worst-case crash — and
// the cold repository still signs ahead of every sequence it ever
// served — but the alternative, accepting a checkpoint one counter
// step behind, would let a real adversary revert to the previous
// generation inside the same window. Integrity over availability, as
// §5.5 resolves every such ambiguity.
func (r *Repo) Checkpoint() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.checkpointLocked()
}

// checkpointLocked is Checkpoint with r.mu held.
func (r *Repo) checkpointLocked() error {
	sealed, err := r.sealStateLocked()
	if err != nil {
		return err
	}
	return r.svc.cfg.Store.Put(StateStoreKey(r.ID), sealed)
}

// RestoredRepo reports the outcome of restoring one repository.
type RestoredRepo struct {
	// ID is the restored tenant repository id.
	ID string
	// Warm is true when a sealed checkpoint was verified and published:
	// the repository serves its previous signed index immediately.
	Warm bool
	// Err, when non-nil, says why the repository came up cold: a
	// rolled-back data dir (ErrRollback), a tampered checkpoint, or a
	// missing state blob. The repository is still deployed and heals on
	// its next Refresh.
	Err error
	// ReplayedIngests counts journaled bulk-ingest batches (crashed
	// mid-apply) that were replayed to completion for this repository.
	ReplayedIngests int
	// ReplayErr, when non-nil, says why a journaled batch could not be
	// replayed; the batch stays pending and is retried next restart.
	ReplayErr error
}

// RestoreAll scans the store for persisted repositories and restores
// them — the boot path of a `tsrd -data-dir` restart. Every per-repo
// failure is reported, none is fatal: a repository whose sealed
// checkpoint fails verification (tamper, rollback) is deployed cold
// with its error, and one whose meta blob is unreadable (deleted host
// state, tampered blob) is reported un-deployed — an adversary who
// owns the store can always make a tenant vanish by deleting its
// blobs, so refusing to boot the remaining tenants would punish the
// operator without constraining the attacker. RestoreAll itself only
// errors when the store cannot be enumerated at all.
func (s *Service) RestoreAll() ([]RestoredRepo, error) {
	var metaKeys []string
	err := s.cfg.Store.Iterate(func(info store.Info) bool {
		if strings.HasPrefix(info.Key, metaKeyPrefix) {
			metaKeys = append(metaKeys, info.Key)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(metaKeys)
	out := make([]RestoredRepo, 0, len(metaKeys))
	for _, mk := range metaKeys {
		out = append(out, s.restoreOne(mk))
	}
	s.replayIngests(out)
	return out, nil
}

// replayIngests re-runs journaled bulk-ingest batches that crashed
// between their append and their commit. Undecodable payloads and
// batches addressed to vanished tenants are dropped (committed); a
// batch whose apply fails stays pending for the next restart and is
// surfaced on its repository's RestoredRepo.
func (s *Service) replayIngests(restored []RestoredRepo) {
	if s.journal == nil {
		return
	}
	byID := make(map[string]*RestoredRepo, len(restored))
	for i := range restored {
		byID[restored[i].ID] = &restored[i]
	}
	_ = s.journal.Replay(func(e store.JournalEntry) error {
		id, raws, err := decodeIngestPayload(s, e.Payload)
		if err != nil {
			return nil // tampered/foreign payload: drop it
		}
		s.mu.RLock()
		r, ok := s.repos[id]
		s.mu.RUnlock()
		if !ok {
			return nil // tenant undeployed since the append: drop it
		}
		// No new journal entry: Replay commits this one on a nil return.
		_, err = r.registerScheduled(context.Background(), raws)
		rr := byID[id]
		if err != nil {
			if rr != nil && rr.ReplayErr == nil {
				rr.ReplayErr = err
			}
			return err
		}
		if rr != nil {
			rr.ReplayedIngests++
		}
		return nil
	})
}

// restoreOne rebuilds a single repository from its sealed meta blob and
// newest checkpoint. A failure before the repository can be deployed
// is reported under the id implied by the store key (the tenant is NOT
// deployed and will 404); later failures leave the repository deployed
// but cold.
func (s *Service) restoreOne(metaKey string) RestoredRepo {
	keyID := strings.TrimPrefix(metaKey, metaKeyPrefix)
	fail := func(err error) RestoredRepo { return RestoredRepo{ID: keyID, Err: err} }
	sealed, err := s.cfg.Store.Get(metaKey)
	if err != nil {
		return fail(err)
	}
	blob, err := s.Unseal(sealed)
	if err != nil {
		return fail(fmt.Errorf("tsr: repo meta %s: %w (wrong host state, or tampered blob)", metaKey, err))
	}
	id, policyRaw, privPEM, err := decodeMeta(blob)
	if err != nil {
		return fail(err)
	}
	if metaKey != MetaStoreKey(id) {
		// Sealed under one key, stored under another: the same
		// entry-swapping defense the sancache uses.
		return fail(fmt.Errorf("tsr: repo meta %s claims id %q", metaKey, id))
	}
	pol, err := policy.Parse(policyRaw)
	if err != nil {
		return fail(err)
	}
	signKey, err := keys.ParsePrivatePEM("tsr-"+id, privPEM)
	if err != nil {
		return fail(err)
	}
	repo, err := newRepo(id, pol, signKey, s)
	if err != nil {
		return fail(err)
	}
	s.mu.Lock()
	if _, exists := s.repos[id]; exists {
		s.mu.Unlock()
		return RestoredRepo{ID: id, Err: fmt.Errorf("tsr: repository %s already deployed", id)}
	}
	s.repos[id] = repo
	s.mu.Unlock()

	stateBlob, err := s.cfg.Store.Get(StateStoreKey(id))
	if err != nil {
		// No checkpoint (deleted, or deploy crashed before the first
		// refresh): the repository starts cold and heals on refresh.
		return RestoredRepo{ID: id, Err: fmt.Errorf("tsr: no checkpoint: %w", err)}
	}
	if err := repo.RestoreState(stateBlob); err != nil {
		// Tampered or rolled-back checkpoint: REFUSE the state (the
		// §5.5 guarantee) but keep the repository deployed cold. Note
		// ErrRollback here can also be an ordinary crash that landed
		// between a publish (which advances the TPM counter) and its
		// checkpoint write —
		// the two are indistinguishable from the disk alone, and the
		// check deliberately fails CLOSED: a cold re-sanitization,
		// never possibly-stale state.
		return RestoredRepo{ID: id, Err: err}
	}
	return RestoredRepo{ID: id, Warm: true}
}

// Errors.Is helper used by daemons to summarize restore outcomes.
func (r RestoredRepo) RolledBack() bool { return errors.Is(r.Err, ErrRollback) }

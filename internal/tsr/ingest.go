package tsr

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/sanitize"
	"tsr/internal/sched"
	"tsr/internal/trace"
)

// Batched crash-safe ingest: operators push original packages that do
// not exist on any mirror (private builds, vendored forks) directly
// into a tenant repository. The batch is journaled BEFORE any effect
// lands (see store.Journal) and the journal entry is committed only
// after the sealed checkpoint — a crash at any instant in between
// replays the whole batch on the next warm restart. Replays are
// idempotent: every effect is keyed by content hash, so re-running a
// half-applied batch converges on the same published state.
//
// Ingested packages are sanitized under the repository's current plan
// and verified against the policy's signer ring exactly like mirror
// downloads; the journal adds durability, never trust.

// ErrNotIngestable marks batches the repository cannot accept.
var ErrNotIngestable = errors.New("tsr: batch not ingestable")

// IngestStats describes one RegisterPackages batch.
type IngestStats struct {
	// Received counts packages in the batch.
	Received int `json:"received"`
	// Registered counts packages accepted into the local index.
	Registered int `json:"registered"`
	// Sanitized and CacheHits split the accepted packages into fresh
	// sanitizations and content-cache hits (a replayed batch is all
	// hits).
	Sanitized int `json:"sanitized"`
	CacheHits int `json:"cache_hits"`
	// Rejected lists per-package failures: undecodable, shadowing an
	// upstream package, excluded by policy, or unsupported scripts.
	Rejected []PackageError `json:"rejected,omitempty"`
	// Sequence is the local index sequence after the batch (unchanged
	// when the batch was a pure replay).
	Sequence uint64 `json:"sequence"`
}

// RegisterPackages ingests a batch of original packages. The batch is
// journaled first when the service persists state, then processed as
// one Interactive scheduler job (operator work preempts queued
// background refreshes), and the journal entry is committed after the
// sealed checkpoint lands.
func (r *Repo) RegisterPackages(ctx context.Context, raws [][]byte) (*IngestStats, error) {
	var seq uint64
	journaled := false
	if r.svc.journal != nil {
		sealed, err := r.sealIngestPayload(raws)
		if err != nil {
			return nil, err
		}
		seq, err = r.svc.journal.Append(sealed)
		if err != nil {
			return nil, err
		}
		journaled = true
	}
	stats, err := r.registerScheduled(ctx, raws)
	if err != nil {
		// The journal entry stays pending: the operator's intent is
		// durable and a restart retries the batch.
		return stats, err
	}
	if journaled {
		if cerr := r.svc.journal.Commit(seq); cerr != nil {
			return stats, fmt.Errorf("tsr: ingest applied but journal commit failed: %w", cerr)
		}
	}
	return stats, nil
}

// StageIngest journals a batch WITHOUT processing it — the crash shape
// experiments exercise: the intent is durable, the effects never
// happened, and the next warm restart replays the batch to completion.
func (r *Repo) StageIngest(raws [][]byte) error {
	if r.svc.journal == nil {
		return fmt.Errorf("%w: service does not persist state (no journal)", ErrNotIngestable)
	}
	sealed, err := r.sealIngestPayload(raws)
	if err != nil {
		return err
	}
	_, err = r.svc.journal.Append(sealed)
	return err
}

// registerScheduled admits the batch through the global scheduler and
// processes it under the repository lock.
func (r *Repo) registerScheduled(ctx context.Context, raws [][]byte) (stats *IngestStats, err error) {
	ctx, sp := trace.Start(ctx, "origin.ingest")
	defer func() {
		if stats != nil {
			sp.SetAttrInt("received", int64(stats.Received))
			sp.SetAttrInt("registered", int64(stats.Registered))
		}
		sp.SetError(err)
		sp.End()
	}()
	sp.SetTier("origin")
	err = r.svc.sched.Run(ctx, r.ID, sched.Interactive, func(ctx context.Context, g *sched.Grant) error {
		var ferr error
		stats, ferr = r.registerGranted(ctx, g, raws)
		return ferr
	})
	return stats, err
}

func (r *Repo) registerGranted(_ context.Context, g *sched.Grant, raws [][]byte) (*IngestStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	stats := &IngestStats{Received: len(raws), Sequence: r.seq}

	if r.plan == nil {
		// Cold repository (fresh deploy, or warm restart before the
		// first refresh): rebuild the plan deterministically from the
		// cached scripts, so replayed batches land under the same plan
		// hash the pre-crash ingest used.
		if err := r.rebuildPlanLocked(); err != nil {
			return nil, fmt.Errorf("tsr: ingest needs a sanitization plan: %w", err)
		}
	}
	// Decode and screen the batch sequentially (cheap), then sanitize
	// the survivors in worker batches leased from the global pool.
	type job struct {
		raw   []byte
		entry index.Entry // describes the ORIGINAL bytes
		pkg   *apk.Package
	}
	var jobs []job
	reject := func(name, msg string) {
		stats.Rejected = append(stats.Rejected, PackageError{Name: name, Err: msg})
	}
	seen := make(map[string]bool, len(raws))
	for i, raw := range raws {
		p, err := apk.DecodeMeta(raw)
		if err != nil {
			reject(fmt.Sprintf("batch[%d]", i), fmt.Sprintf("undecodable package: %v", err))
			continue
		}
		switch {
		case seen[p.Name]:
			reject(p.Name, "duplicate name within the batch")
			continue
		case r.upstream != nil && func() bool { _, err := r.upstream.Lookup(p.Name); return err == nil }():
			reject(p.Name, "shadows an upstream package of the same name")
			continue
		case !r.policy.Allows(p.Name):
			reject(p.Name, "excluded by policy whitelist/blacklist")
			continue
		}
		seen[p.Name] = true
		hash := sha256.Sum256(raw)
		jobs = append(jobs, job{
			raw: raw,
			pkg: p,
			entry: index.Entry{
				Name: p.Name, Version: p.Version, Size: int64(len(raw)),
				Hash: hash, Depends: p.Depends,
			},
		})
	}

	// Every package goes through the sanitization cache whatever the
	// CacheMode: a replayed batch must land as pure cache hits.
	san := r.sanitizer(r.plan, true)
	planHash := r.planHash
	outs := make([]sanOut, len(jobs))
	runBatches(g, r.workers, len(jobs), func(i int) {
		jb := &jobs[i]
		// Original bytes first: refresh re-sanitization and on-demand
		// serving read them back by content hash.
		if err := r.svc.cfg.Store.Put(r.origKey(jb.entry.Name, jb.entry.Hash), jb.raw); err != nil {
			outs[i].err = err
			return
		}
		outs[i] = r.sanitizeCached(san, planHash, jb.entry, jb.raw, true)
	}, nil)

	// Merge the accepted packages into the local index. A batch whose
	// every package is already registered at the same content (a
	// journal replay racing a late commit) publishes nothing.
	newLocal := &index.Index{Origin: "tsr-" + r.ID}
	if r.local != nil {
		newLocal = r.local.Clone()
	}
	changed := false
	var firstErr error
	for i := range outs {
		o := &outs[i]
		jb := &jobs[i]
		switch {
		case o.err != nil:
			reject(jb.entry.Name, o.err.Error())
			if firstErr == nil {
				firstErr = o.err
			}
		case o.reject != "":
			reject(jb.entry.Name, o.reject)
		default:
			if old, err := newLocal.Lookup(jb.entry.Name); err != nil || old.Hash != o.entry.Hash {
				newLocal.Add(o.entry)
				changed = true
			}
			if re, ok := r.registered[jb.entry.Name]; !ok || re.Hash != jb.entry.Hash {
				r.registered[jb.entry.Name] = jb.entry
				changed = true
			}
			r.scripts[jb.entry.Name] = scriptsEntry{digest: jb.entry.Hash, scripts: jb.pkg.Scripts}
			stats.Registered++
			if o.cacheHit {
				stats.CacheHits++
			} else {
				stats.Sanitized++
			}
		}
	}
	sort.Slice(stats.Rejected, func(i, j int) bool { return stats.Rejected[i].Name < stats.Rejected[j].Name })
	if firstErr != nil {
		// Internal failure (store write, sanitizer bug): leave the
		// published state alone; the journal entry stays pending and the
		// batch is retried. Hash-keyed effects make the retry converge.
		return stats, firstErr
	}
	if !changed {
		stats.Sequence = r.seq
		r.totals.ingested.Add(int64(stats.Registered))
		return stats, nil
	}

	if err := r.publishNextLocked(newLocal, nil); err != nil {
		return stats, err
	}
	stats.Sequence = r.seq
	r.totals.ingested.Add(int64(stats.Registered))
	r.totals.sanitized.Add(int64(stats.Sanitized))
	r.totals.cacheHits.Add(int64(stats.CacheHits))
	return stats, r.autoCheckpointLocked("ingest")
}

// rebuildPlanLocked deterministically rebuilds the sanitization plan
// from the current upstream index and cached scripts — the ingest
// path's stand-in for the refresh plan stage. With the original cache
// intact (the warm-restart case) it reproduces the pre-crash plan
// hash, so replayed batches land as pure cache hits; any drift is
// healed by the next refresh's own plan stage.
func (r *Repo) rebuildPlanLocked() error {
	idx := r.upstream
	if idx == nil {
		idx = &index.Index{}
	}
	plan, err := sanitize.BuildPlan(&scriptCacheSource{repo: r, idx: idx}, r.policy.InitConfigFiles, r.memo)
	if err != nil {
		return err
	}
	r.plan = plan
	r.planHash = plan.Hash()
	return nil
}

// RegisteredPackages lists the operator-registered entries (original
// bytes) in name order.
func (r *Repo) RegisteredPackages() []index.Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.registeredEntriesLocked()
}

// EncodeIngestBody frames a batch for POST /repos/{id}/ingest: each
// package is length-prefixed with the repo's chunk framing.
func EncodeIngestBody(raws [][]byte) []byte {
	var buf bytes.Buffer
	for _, raw := range raws {
		writeChunk(&buf, raw)
	}
	return buf.Bytes()
}

// DecodeIngestBody parses a chunk-framed ingest body.
func DecodeIngestBody(body []byte) ([][]byte, error) {
	buf := bytes.NewReader(body)
	var raws [][]byte
	for buf.Len() > 0 {
		raw, err := readChunk(buf)
		if err != nil {
			return nil, fmt.Errorf("tsr: ingest body: %w", err)
		}
		raws = append(raws, raw)
	}
	if len(raws) == 0 {
		return nil, errors.New("tsr: ingest body: empty batch")
	}
	return raws, nil
}

// --- journal payload --------------------------------------------------

// sealIngestPayload encodes and seals one batch for the journal:
// chunk(repoID) + count + chunk(raw)... . Sealing keeps operator
// package bytes confidential on the untrusted store and prevents a
// store adversary from splicing packages into someone else's pending
// batch.
func (r *Repo) sealIngestPayload(raws [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	writeChunk(&buf, []byte(r.ID))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(raws)))
	buf.Write(n[:])
	for _, raw := range raws {
		writeChunk(&buf, raw)
	}
	return r.svc.Seal(buf.Bytes())
}

// decodeIngestPayload unseals and parses a journaled batch.
func decodeIngestPayload(s *Service, payload []byte) (id string, raws [][]byte, err error) {
	blob, err := s.Unseal(payload)
	if err != nil {
		return "", nil, fmt.Errorf("tsr: ingest journal entry: %w", err)
	}
	buf := bytes.NewReader(blob)
	rawID, err := readChunk(buf)
	if err != nil {
		return "", nil, err
	}
	var n [8]byte
	if _, err := buf.Read(n[:]); err != nil {
		return "", nil, fmt.Errorf("tsr: ingest journal entry: %w", err)
	}
	count := binary.BigEndian.Uint64(n[:])
	if count > 1<<20 {
		return "", nil, fmt.Errorf("tsr: ingest journal entry: absurd package count %d", count)
	}
	raws = make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		raw, err := readChunk(buf)
		if err != nil {
			return "", nil, err
		}
		raws = append(raws, raw)
	}
	return string(rawID), raws, nil
}

// ingestPayloadRepo returns the repo id a journaled batch addresses,
// or "" when the payload cannot be decoded.
func ingestPayloadRepo(payload []byte, s *Service) string {
	id, _, err := decodeIngestPayload(s, payload)
	if err != nil {
		return ""
	}
	return id
}

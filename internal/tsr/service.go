// Package tsr implements the trusted software repository service — the
// secure proxy of Figure 6. A single Service instance (running inside a
// simulated SGX enclave) hosts one logical repository per deployed
// security policy (§5.2): each gets its own signing key, quorum reader
// over the policy's mirrors, sanitization plan, and two-level package
// cache with rollback protection (§5.5).
package tsr

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"

	"tsr/internal/enclave"
	"tsr/internal/keys"
	"tsr/internal/netsim"
	"tsr/internal/policy"
	"tsr/internal/quorum"
	"tsr/internal/sched"
	"tsr/internal/store"
	"tsr/internal/tpm"
)

// CodeIdentity is the enclave code identity (MRENCLAVE source) of this
// TSR build; OS owners verify it during policy deployment (Figure 7).
const CodeIdentity = "tsr-v1.0"

// Error sentinels.
var (
	ErrNoRepo         = errors.New("tsr: unknown repository id")
	ErrNoMirror       = errors.New("tsr: policy mirror not resolvable")
	ErrNotInitialized = errors.New("tsr: repository not initialized (no refresh yet)")
)

// Config wires a Service to its environment.
type Config struct {
	// Platform is the SGX platform TSR launches on.
	Platform *enclave.Platform
	// TPM provides the monotonic counters for rollback protection. It
	// is required: every publish reserves its sequence from a counter.
	TPM *tpm.TPM
	// Clock and Link model network time; Local locates the TSR host
	// (Europe in the paper's deployment).
	Clock netsim.Clock
	Link  *netsim.LinkModel
	Local netsim.Continent
	// Store is the untrusted package cache. An adversary with root
	// access may tamper with or roll back its contents — TSR never
	// trusts what it reads back and re-verifies against in-enclave
	// state. A store.Mem serves diskless runs; a store.FS (tsrd
	// -data-dir) is a durable cache that makes restarts warm.
	Store store.Store
	// Resolve maps a policy mirror to a live connection.
	Resolve func(m policy.Mirror) (quorum.Source, PackageFetcher, error)
	// EPC selects the SGX cost model; zero value disables it (the
	// "TSR without SGX" baseline of Figure 12).
	EPC enclave.CostModel
	// Workers bounds EACH repository's refresh pipeline concurrency:
	// a refresh downloads originals and sanitizes packages on up to
	// Workers goroutines at a time. 0 or 1 runs the paper's sequential
	// prototype.
	Workers int
	// RefreshWorkers bounds the GLOBAL refresh slot pool shared by
	// every tenant (see internal/sched): the sum of all tenants'
	// in-flight pipeline goroutines never exceeds it. 0 = unbounded,
	// leaving the per-repo Workers cap as the only limit — the
	// historical single-tenant behaviour.
	RefreshWorkers int
	// SchedMaxActive bounds how many refresh/ingest jobs run
	// concurrently through the scheduler; queued jobs are admitted in
	// fair order with operator (Interactive) priority first.
	// 0 = unbounded.
	SchedMaxActive int
	// AutoPersist journals sealed repository metadata (at DeployPolicy)
	// and sealed state checkpoints (after every successful Refresh)
	// into the Store, so a restarted service warm-boots via RestoreAll.
	// Pointless without a durable Store.
	AutoPersist bool
}

// PackageFetcher downloads one package from a mirror. The returned
// bytes are read-only: a mirror may hand out the slice it serves every
// caller, so a caller that must change them copies them first.
type PackageFetcher interface {
	FetchPackage(name string) ([]byte, error)
}

// Service is a running TSR instance.
type Service struct {
	cfg     Config
	enclave *enclave.Enclave
	sched   *sched.Scheduler
	// journal is the crash-safe bulk-ingest intent log (nil unless
	// AutoPersist): each RegisterPackages call appends its payload
	// before any effect lands and commits after the sealed checkpoint,
	// so a crash mid-ingest replays to completion on the next boot.
	journal *store.Journal

	mu    sync.RWMutex
	repos map[string]*Repo
}

// ingestJournalPrefix keys journaled bulk-ingest intents; it lives
// outside every repository's "<id>/..." cache namespace, like
// tsrmeta/ and tsrstate/.
const ingestJournalPrefix = "tsringest/"

// New launches TSR inside an enclave on the given platform.
func New(cfg Config) (*Service, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("tsr: config requires a platform")
	}
	if cfg.TPM == nil {
		return nil, fmt.Errorf("tsr: config requires a TPM")
	}
	if cfg.Store == nil {
		cfg.Store = store.NewMem()
	}
	if cfg.Clock == nil {
		cfg.Clock = netsim.RealClock{}
	}
	enc := cfg.Platform.Launch(enclave.MeasureCode(CodeIdentity))
	s := &Service{
		cfg:     cfg,
		enclave: enc,
		sched:   sched.New(sched.Config{Workers: cfg.RefreshWorkers, MaxActive: cfg.SchedMaxActive}),
		repos:   make(map[string]*Repo),
	}
	if cfg.AutoPersist {
		j, err := store.OpenJournal(cfg.Store, ingestJournalPrefix)
		if err != nil {
			return nil, fmt.Errorf("tsr: opening ingest journal: %w", err)
		}
		s.journal = j
	}
	return s, nil
}

// Scheduler exposes the global refresh scheduler and its stats.
func (s *Service) Scheduler() *sched.Scheduler { return s.sched }

// Measurement returns the enclave measurement OS owners expect.
func Measurement() enclave.Measurement { return enclave.MeasureCode(CodeIdentity) }

// repoIDPattern is the only id shape DeployPolicyID accepts from a
// caller: the exact format DeployPolicy itself generates. Routers rely
// on this to pre-compute a repo's shard placement before deploying it.
var repoIDPattern = regexp.MustCompile(`^r[0-9a-f]{16}$`)

// NewRepoID draws a fresh repository id in the one format
// repoIDPattern admits. The shard router names tenants with it before
// it forwards their deploy.
func NewRepoID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("tsr: repository id: %w", err)
	}
	return "r" + hex.EncodeToString(b[:]), nil
}

// DeployPolicy validates a policy, creates the tenant repository with a
// fresh signing key generated inside the enclave, and returns the
// repository id, the public signing key (PEM), and an attestation
// report over the key — the Figure 7 protocol.
func (s *Service) DeployPolicy(raw []byte) (repoID string, publicKeyPEM []byte, report *enclave.Report, err error) {
	return s.DeployPolicyID(raw, "")
}

// DeployPolicyID is DeployPolicy with a caller-chosen repository id
// (sharding routers pick the id first so its ring placement is known
// up front). An empty id generates one; a non-empty id must match the
// generated format and be unused.
func (s *Service) DeployPolicyID(raw []byte, id string) (repoID string, publicKeyPEM []byte, report *enclave.Report, err error) {
	pol, err := policy.Parse(raw)
	if err != nil {
		return "", nil, nil, err
	}
	if err := pol.Validate(); err != nil {
		return "", nil, nil, err
	}
	if id != "" {
		if !repoIDPattern.MatchString(id) {
			return "", nil, nil, fmt.Errorf("tsr: repository id %q must match %s", id, repoIDPattern)
		}
		repoID = id
	} else if repoID, err = NewRepoID(); err != nil {
		return "", nil, nil, err
	}
	s.mu.RLock()
	_, taken := s.repos[repoID]
	s.mu.RUnlock()
	if taken {
		return "", nil, nil, fmt.Errorf("tsr: repository id %q already deployed", repoID)
	}

	signKey, err := keys.Generate("tsr-" + repoID)
	if err != nil {
		return "", nil, nil, err
	}
	repo, err := newRepo(repoID, pol, signKey, s)
	if err != nil {
		return "", nil, nil, err
	}
	if s.cfg.AutoPersist {
		// Journal the repository's identity before announcing it: a
		// deploy that cannot be made durable must fail now, not as a
		// silently-missing tenant after the next restart.
		if err := s.persistMeta(repo, raw); err != nil {
			return "", nil, nil, fmt.Errorf("tsr: persisting repository metadata: %w", err)
		}
	}
	s.mu.Lock()
	s.repos[repoID] = repo
	s.mu.Unlock()

	publicKeyPEM, err = signKey.Public().MarshalPEM()
	if err != nil {
		return "", nil, nil, err
	}
	var rd [64]byte
	sum := sha256.Sum256(publicKeyPEM)
	copy(rd[:], sum[:])
	report, err = s.enclave.Attest(rd)
	if err != nil {
		return "", nil, nil, err
	}
	return repoID, publicKeyPEM, report, nil
}

// Repo returns the tenant repository with the given id.
func (s *Service) Repo(id string) (*Repo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.repos[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoRepo, id)
	}
	return r, nil
}

// RepoIDs lists the deployed repositories in sorted order, so that
// iteration-order consumers (auto-refresh scheduling, /stats, CLI
// output) are deterministic across restarts of the same fleet.
func (s *Service) RepoIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.repos))
	for id := range s.repos {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Undeploy removes a tenant repository and deletes its durable state:
// sealed metadata, sealed checkpoint, pending journaled ingests, and —
// best effort — its cache namespace. In-flight requests holding the
// *Repo finish against the final published snapshot.
func (s *Service) Undeploy(id string) error {
	s.mu.Lock()
	_, ok := s.repos[id]
	if ok {
		delete(s.repos, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoRepo, id)
	}
	if s.journal != nil {
		// Drop pending ingests addressed to the dead tenant so a later
		// restart does not replay into a missing repo.
		pending, err := s.journal.Pending()
		if err == nil {
			for _, e := range pending {
				if ingestPayloadRepo(e.Payload, s) == id {
					_ = s.journal.Commit(e.Seq)
				}
			}
		}
	}
	if s.cfg.AutoPersist {
		if err := s.cfg.Store.Delete(MetaStoreKey(id)); err != nil && err != store.ErrNotFound {
			return fmt.Errorf("tsr: undeploy %s: %w", id, err)
		}
		if err := s.cfg.Store.Delete(StateStoreKey(id)); err != nil && err != store.ErrNotFound {
			return fmt.Errorf("tsr: undeploy %s: %w", id, err)
		}
	}
	var doomed []string
	_ = s.cfg.Store.Iterate(func(info store.Info) bool {
		if strings.HasPrefix(info.Key, id+"/") {
			doomed = append(doomed, info.Key)
		}
		return true
	})
	for _, k := range doomed {
		_ = s.cfg.Store.Delete(k)
	}
	return nil
}

// ServiceStats aggregates the whole origin for the service-level
// GET /stats endpoint: per-tenant cache counters, their sum, and a
// snapshot of the shared refresh scheduler.
type ServiceStats struct {
	Repos  map[string]CacheStats `json:"repos"`
	Totals CacheStats            `json:"totals"`
	Sched  sched.Snapshot        `json:"sched"`
}

// Stats snapshots every tenant's counters plus the scheduler state.
func (s *Service) Stats() ServiceStats {
	out := ServiceStats{Repos: make(map[string]CacheStats), Sched: s.sched.Snapshot()}
	s.mu.RLock()
	repos := make([]*Repo, 0, len(s.repos))
	for _, r := range s.repos {
		repos = append(repos, r)
	}
	s.mu.RUnlock()
	for _, r := range repos {
		cs := r.CacheStats()
		out.Repos[r.ID] = cs
		out.Totals = out.Totals.add(cs)
	}
	return out
}

// Seal seals data to this TSR enclave identity.
func (s *Service) Seal(data []byte) ([]byte, error) { return s.enclave.Seal(data) }

// Unseal recovers enclave-sealed data.
func (s *Service) Unseal(blob []byte) ([]byte, error) { return s.enclave.Unseal(blob) }

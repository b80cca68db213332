package tsr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tsr/internal/apk"
	"tsr/internal/enclave"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/mirror"
	"tsr/internal/netsim"
	"tsr/internal/osimage"
	"tsr/internal/pkgmgr"
	"tsr/internal/policy"
	"tsr/internal/quorum"
	"tsr/internal/repo"
	"tsr/internal/store"
	"tsr/internal/tpm"
)

// world wires the full paper topology: original repository, mirrors, a
// TSR service, and policy text.
type world struct {
	repo    *repo.Repository
	mirrors []*mirror.Mirror
	svc     *Service
	store   *store.Mem // nil when worldCfg injected a non-Mem store
	backing store.Store
	policy  []byte
	signer  *keys.Pair // distribution key (signs index AND packages)
}

// worldCfg overrides the world's host-side pieces — store, TPM,
// platform — so persistence tests can share them across simulated
// restarts. Zero value: fresh store.Mem, fresh TPM, fresh platform.
type worldCfg struct {
	store          store.Store
	tpm            *tpm.TPM
	platform       *enclave.Platform
	autoPersist    bool
	refreshWorkers int
	schedMaxActive int
	workers        int
}

func newWorld(t *testing.T, nMirrors int) *world {
	t.Helper()
	return newWorldCfg(t, nMirrors, worldCfg{})
}

func newWorldCfg(t *testing.T, nMirrors int, wc worldCfg) *world {
	t.Helper()
	signer := keys.Shared.MustGet("alpine-distro-key")
	if wc.store == nil {
		wc.store = store.NewMem()
	}
	w := &world{
		repo:    repo.New("alpine-main", signer),
		signer:  signer,
		backing: wc.store,
	}
	if ms, ok := wc.store.(*store.Mem); ok {
		w.store = ms
	}
	byHost := make(map[string]*mirror.Mirror)
	var mirrorsYAML strings.Builder
	mirrorsYAML.WriteString("mirrors:\n")
	for i := 0; i < nMirrors; i++ {
		host := fmt.Sprintf("https://mirror%d/", i)
		m := mirror.New(host, netsim.Europe)
		w.mirrors = append(w.mirrors, m)
		byHost[host] = m
		fmt.Fprintf(&mirrorsYAML, "  - hostname: %s\n", host)
	}
	pem, err := signer.Public().MarshalPEM()
	if err != nil {
		t.Fatal(err)
	}
	var pol strings.Builder
	pol.WriteString(mirrorsYAML.String())
	pol.WriteString("signers_keys:\n  - |-\n")
	for _, line := range strings.Split(strings.TrimRight(string(pem), "\n"), "\n") {
		pol.WriteString("    " + line + "\n")
	}
	pol.WriteString(`init_config_files:
  - path: /etc/passwd
    content: |-
      root:x:0:0:root:/root:/bin/ash
  - path: /etc/group
    content: |-
      root:x:0:
`)
	w.policy = []byte(pol.String())

	platform := wc.platform
	if platform == nil {
		var err error
		platform, err = enclave.NewPlatform(keys.Shared.MustGet("sgx-quoting"))
		if err != nil {
			t.Fatal(err)
		}
	}
	hostTPM := wc.tpm
	if hostTPM == nil {
		hostTPM = tpmForTest(t)
	}
	svc, err := New(Config{
		Platform:       platform,
		TPM:            hostTPM,
		Clock:          netsim.NewVirtualClock(time.Time{}),
		Link:           netsim.DefaultLinkModel(netsim.NewRNG(7)),
		Local:          netsim.Europe,
		Store:          w.backing,
		AutoPersist:    wc.autoPersist,
		Workers:        wc.workers,
		RefreshWorkers: wc.refreshWorkers,
		SchedMaxActive: wc.schedMaxActive,
		EPC:            enclave.DefaultCostModel(),
		Resolve: func(m policy.Mirror) (quorum.Source, PackageFetcher, error) {
			mm, ok := byHost[m.Hostname]
			if !ok {
				return nil, nil, fmt.Errorf("no mirror %q", m.Hostname)
			}
			return mm, mm, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.svc = svc
	return w
}

func (w *world) publish(t *testing.T, pkgs ...*apk.Package) {
	t.Helper()
	for _, p := range pkgs {
		if err := apk.Sign(p, w.signer); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.repo.Publish(pkgs...); err != nil {
		t.Fatal(err)
	}
	for _, m := range w.mirrors {
		m.Sync(w.repo)
	}
}

func (w *world) deploy(t *testing.T) *Repo {
	t.Helper()
	id, pub, report, err := w.svc.DeployPolicy(w.policy)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(pub), "BEGIN PUBLIC KEY") {
		t.Fatalf("public key = %q", pub)
	}
	// OS owner verifies the enclave before trusting the key (Figure 7).
	platformKey := keys.Shared.MustGet("sgx-quoting").Public()
	if err := report.Verify(platformKey, Measurement()); err != nil {
		t.Fatal(err)
	}
	r, err := w.svc.Repo(id)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func pkgWithScript(name, version, scriptSrc string) *apk.Package {
	p := &apk.Package{
		Name: name, Version: version,
		Files: []apk.File{{Path: "/usr/bin/" + name, Mode: 0o755, Content: []byte(name + version)}},
	}
	if scriptSrc != "" {
		p.Scripts = map[string]string{"post-install": scriptSrc}
	}
	return p
}

// --- tests -------------------------------------------------------------

// TestNewRequiresPlatformAndTPM: a service without a platform cannot
// launch its enclave, and one without a TPM cannot reserve the
// sequence of its first publish, so New refuses both up front.
func TestNewRequiresPlatformAndTPM(t *testing.T) {
	platform, err := enclave.NewPlatform(keys.Shared.MustGet("sgx-quoting"))
	if err != nil {
		t.Fatal(err)
	}
	hostTPM := tpmForTest(t)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"no platform", Config{TPM: hostTPM}, "requires a platform"},
		{"no TPM", Config{Platform: platform}, "requires a TPM"},
		{"both", Config{Platform: platform, TPM: hostTPM}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("New: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("New = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestDeployPolicyGeneratesDistinctKeys(t *testing.T) {
	w := newWorld(t, 3)
	r1 := w.deploy(t)
	r2 := w.deploy(t)
	if r1.ID == r2.ID {
		t.Fatal("repository ids collide")
	}
	if r1.PublicKey().Fingerprint() == r2.PublicKey().Fingerprint() {
		t.Fatal("tenants share a signing key")
	}
	if len(w.svc.RepoIDs()) != 2 {
		t.Fatalf("repo ids = %v", w.svc.RepoIDs())
	}
}

func TestDeployPolicyRejectsInvalid(t *testing.T) {
	w := newWorld(t, 3)
	if _, _, _, err := w.svc.DeployPolicy([]byte("mirrors:\n")); err == nil {
		t.Fatal("want error for empty mirror list")
	}
	if _, _, _, err := w.svc.DeployPolicy([]byte("not yaml at all")); err == nil {
		t.Fatal("want parse error")
	}
}

func TestRefreshSanitizesAndServes(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t,
		pkgWithScript("plain", "1.0-r0", ""),
		pkgWithScript("svc", "1.0-r0", "addgroup -S svc\nadduser -S -G svc svc\n"),
		pkgWithScript("shelly", "1.0-r0", "add-shell /bin/zsh\n"),
	)
	r := w.deploy(t)
	stats, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 2 || stats.Rejected != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// The served index lists only sanitized packages and verifies
	// against the repository key.
	signed, err := r.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := signed.Verify(keys.NewRing(r.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Entries) != 2 {
		t.Fatalf("index = %v", ix.Names())
	}
	if _, err := ix.Lookup("shelly"); !errors.Is(err, index.ErrNotFound) {
		t.Fatal("rejected package leaked into the index")
	}
	// The sanitized package verifies against the TSR key, and its
	// files carry IMA signatures.
	raw, err := r.FetchPackage("svc")
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := apk.VerifyRaw(raw, keys.NewRing(r.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Files {
		if _, ok := f.Xattrs[apk.XattrIMA]; !ok {
			t.Fatalf("%s: missing IMA signature", f.Path)
		}
	}
	if !strings.Contains(p.Scripts["post-install"], "TSR canonical account provisioning") {
		t.Fatal("script not rewritten")
	}
	// Rejected package fetch is a clean error.
	if _, err := r.FetchPackage("shelly"); !errors.Is(err, ErrUnsupportedPkg) {
		t.Fatalf("err = %v", err)
	}
	// Index and hash agreement: wire bytes hash to the index entry.
	e, _ := ix.Lookup("svc")
	if int64(len(raw)) != e.Size {
		t.Fatal("wire size != index size")
	}
}

func TestFetchBeforeRefresh(t *testing.T) {
	w := newWorld(t, 3)
	r := w.deploy(t)
	if _, err := r.FetchIndex(); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.FetchPackage("x"); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("err = %v", err)
	}
}

func TestIncrementalRefresh(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("a", "1.0-r0", ""), pkgWithScript("b", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Update only b.
	w.publish(t, pkgWithScript("b", "1.1-r0", ""))
	stats, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 1 || stats.Unchanged != 1 {
		t.Fatalf("stats = %+v (want only b re-sanitized)", stats)
	}
	signed, err := r.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := signed.Verify(keys.NewRing(r.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	e, err := ix.Lookup("b")
	if err != nil || e.Version != "1.1-r0" {
		t.Fatalf("b = %+v, %v", e, err)
	}
}

func TestRefreshReplansWhenAccountsChange(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("svc-a", "1.0-r0", "adduser -S ua\n"))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	preamble1 := r.Plan().Preamble
	// A new package introduces a new account: the plan must change and
	// ALL account packages must be re-sanitized with the wider preamble.
	w.publish(t, pkgWithScript("svc-b", "1.0-r0", "adduser -S ub\n"))
	stats, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan().Preamble == preamble1 {
		t.Fatal("plan not rebuilt")
	}
	if stats.Sanitized != 2 {
		t.Fatalf("stats = %+v (want full re-sanitization)", stats)
	}
	// Both packages' scripts now provision both accounts.
	for _, name := range []string{"svc-a", "svc-b"} {
		raw, err := r.FetchPackage(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := apk.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		s := p.Scripts["post-install"]
		if !strings.Contains(s, "ua") || !strings.Contains(s, "ub") {
			t.Fatalf("%s preamble incomplete:\n%s", name, s)
		}
	}
}

func TestCacheModesServedFrom(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Default CacheBoth: served from the sanitized cache.
	_, res, err := r.FetchPackageTracedCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	if res.From != ServedSanitizedCache {
		t.Fatalf("from = %v", res.From)
	}
	// Original-only: re-sanitized from the cached original.
	r.SetCacheMode(CacheOriginalOnly)
	_, res, err = r.FetchPackageTracedCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	if res.From != ServedOriginalCache {
		t.Fatalf("from = %v", res.From)
	}
	// None: downloaded from a mirror again.
	r.SetCacheMode(CacheNone)
	_, res, err = r.FetchPackageTracedCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	if res.From != ServedMirror {
		t.Fatalf("from = %v", res.From)
	}
}

func TestCacheTamperDetected(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Root adversary flips bytes in the sanitized cache: TSR must not
	// serve the tampered bytes — it transparently re-sanitizes from the
	// original and the result matches the trusted index again.
	r.mu.Lock()
	sanEntry, err := r.local.Lookup("app")
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.store.Tamper(r.sanitizedKey("app", sanEntry.Hash)); err != nil {
		t.Fatal(err)
	}
	raw, res, err := r.FetchPackageTracedCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	if res.From == ServedSanitizedCache {
		t.Fatal("served from tampered cache")
	}
	if _, _, err := apk.VerifyRaw(raw, keys.NewRing(r.PublicKey())); err != nil {
		t.Fatal(err)
	}
}

func TestCacheRollbackDetected(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	snapshot := w.store.Snapshot() // adversary keeps the old cache
	w.publish(t, pkgWithScript("app", "1.1-r0", ""))
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	w.store.Restore(snapshot) // rollback attack on the disk cache
	raw, res, err := r.FetchPackageTracedCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	if res.From == ServedSanitizedCache {
		t.Fatal("rolled-back cache entry served")
	}
	p, err := apk.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != "1.1-r0" {
		t.Fatalf("served version %s after rollback", p.Version)
	}
}

func TestSealRestoreRoundtrip(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	sealed, err := r.SealState()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a restart: wipe in-memory state, restore from the seal.
	r.mu.Lock()
	r.upstream, r.local, r.localSig = nil, nil, nil
	r.mu.Unlock()
	if err := r.RestoreState(sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FetchIndex(); err != nil {
		t.Fatal(err)
	}
}

func TestSealedStateRollbackDetected(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	oldSeal, err := r.SealState() // MC -> 1
	if err != nil {
		t.Fatal(err)
	}
	w.publish(t, pkgWithScript("app", "1.1-r0", ""))
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SealState(); err != nil { // MC -> 2
		t.Fatal(err)
	}
	// Adversary restarts TSR with the OLD sealed file.
	if err := r.RestoreState(oldSeal); !errors.Is(err, ErrRollback) {
		t.Fatalf("err = %v", err)
	}
}

func TestSealedStateWrongEnclaveRejected(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	sealed, err := r.SealState()
	if err != nil {
		t.Fatal(err)
	}
	// A different platform cannot unseal.
	otherPlatform, err := enclave.NewPlatform(keys.Shared.MustGet("other-quoting"))
	if err != nil {
		t.Fatal(err)
	}
	other := otherPlatform.Launch(Measurement())
	if _, err := other.Unseal(sealed); !errors.Is(err, enclave.ErrSealBroken) {
		t.Fatalf("err = %v", err)
	}
}

func TestQuorumToleratesReplayMirrors(t *testing.T) {
	w := newWorld(t, 5)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Two mirrors turn Byzantine and replay the old index.
	w.mirrors[0].SetBehavior(mirror.Replay)
	w.mirrors[1].SetBehavior(mirror.Replay)
	w.publish(t, pkgWithScript("app", "1.1-r0", "")) // security update
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	raw, err := r.FetchPackage("app")
	if err != nil {
		t.Fatal(err)
	}
	p, err := apk.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != "1.1-r0" {
		t.Fatalf("served %s despite honest majority", p.Version)
	}
}

func TestEndToEndThroughPackageManager(t *testing.T) {
	// The full Figure 6 flow: publish -> TSR sanitize -> package
	// manager installs from TSR -> remote attestation accepts.
	w := newWorld(t, 3)
	w.publish(t,
		pkgWithScript("ntpd", "4.2-r0", "addgroup -S ntp\nadduser -S -G ntp ntp\nmkdir -p /var/lib/ntp\n"),
	)
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}

	img, err := osimage.New(keys.Shared.MustGet("os-ak"), r.Policy().InitConfigFiles)
	if err != nil {
		t.Fatal(err)
	}
	mgr := pkgmgr.New(img, r,
		keys.NewRing(r.PublicKey()), // index signed by TSR
		keys.NewRing(r.PublicKey())) // packages signed by TSR
	if err := mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Install("ntpd"); err != nil {
		t.Fatal(err)
	}
	// The OS got the canonical account state.
	passwd, err := img.FS.ReadFile(osimage.PasswdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(passwd), "ntp:x:200:") {
		t.Fatalf("passwd = %q", passwd)
	}
	// The config file carries the TSR signature installed via setfattr.
	sig, err := img.FS.GetXattr(osimage.PasswdPath, apk.XattrIMA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := keys.NewRing(r.PublicKey()).VerifyAny(passwd, sig); err != nil {
		t.Fatalf("config signature does not verify: %v", err)
	}
}

func TestHTTPAPI(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", "adduser -S app\n"))
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()

	// Deploy a policy over HTTP.
	resp, err := srv.Client().Post(srv.URL+"/policies", "application/yaml", strings.NewReader(string(w.policy)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
	var deployed struct {
		RepositoryID string `json:"repository_id"`
		PublicKey    string `json:"public_key"`
	}
	if err := jsonDecode(resp, &deployed); err != nil {
		t.Fatal(err)
	}
	if deployed.RepositoryID == "" || !strings.Contains(deployed.PublicKey, "BEGIN PUBLIC KEY") {
		t.Fatalf("deployed = %+v", deployed)
	}

	// Refresh over HTTP; the response carries the pipeline stats.
	resp, err = srv.Client().Post(srv.URL+"/repos/"+deployed.RepositoryID+"/refresh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("refresh status = %d", resp.StatusCode)
	}
	var refreshed struct {
		Sanitized int `json:"sanitized"`
		CacheHits int `json:"cache_hits"`
		Workers   int `json:"workers"`
	}
	if err := jsonDecode(resp, &refreshed); err != nil {
		t.Fatal(err)
	}
	if refreshed.Sanitized != 1 || refreshed.Workers < 1 {
		t.Fatalf("refresh response = %+v", refreshed)
	}

	// Cumulative counters over HTTP.
	resp, err = srv.Client().Get(srv.URL + "/repos/" + deployed.RepositoryID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var totals CacheStats
	if err := jsonDecode(resp, &totals); err != nil {
		t.Fatal(err)
	}
	if totals.Refreshes != 1 || totals.Sanitized != 1 {
		t.Fatalf("stats = %+v", totals)
	}

	// The package manager consumes TSR through the HTTP client.
	pub, err := keys.ParsePEM("tsr-"+deployed.RepositoryID, []byte(deployed.PublicKey))
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{BaseURL: srv.URL, RepoID: deployed.RepositoryID, HTTPClient: srv.Client()}
	img, err := osimage.New(keys.Shared.MustGet("os-ak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr := pkgmgr.New(img, client, keys.NewRing(pub), keys.NewRing(pub))
	if err := mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Install("app"); err != nil {
		t.Fatal(err)
	}
	if !img.FS.Exists("/usr/bin/app") {
		t.Fatal("binary missing after HTTP install")
	}

	// 404 for unknown repo; health check.
	resp, err = srv.Client().Get(srv.URL + "/repos/nope/index")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Fatalf("unknown repo status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz = %v, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func tpmForTest(t *testing.T) *tpm.TPM {
	t.Helper()
	return tpm.New(keys.Shared.MustGet("tsr-host-tpm-ak"))
}

func TestOriginalCacheTamperFallsBackToMirror(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	r.SetCacheMode(CacheOriginalOnly)
	// Root adversary corrupts the ORIGINAL cache entry; TSR must detect
	// the hash mismatch against the upstream index and re-download.
	r.mu.Lock()
	upEntry, err := r.upstream.Lookup("app")
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.store.Tamper(r.origKey("app", upEntry.Hash)); err != nil {
		t.Fatal(err)
	}
	raw, res, err := r.FetchPackageTracedCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	if res.From != ServedMirror {
		t.Fatalf("from = %v, want mirror re-download", res.From)
	}
	if _, _, err := apk.VerifyRaw(raw, keys.NewRing(r.PublicKey())); err != nil {
		t.Fatal(err)
	}
}

func TestFetchSurvivesMirrorOutage(t *testing.T) {
	// With the sanitized cache populated, mirror outages do not affect
	// package serving at all.
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	for _, m := range w.mirrors {
		m.SetBehavior(mirror.Offline)
	}
	if _, err := r.FetchPackage("app"); err != nil {
		t.Fatal(err)
	}
	// But a no-cache fetch needs a mirror and fails cleanly.
	r.SetCacheMode(CacheNone)
	if _, err := r.FetchPackage("app"); err == nil {
		t.Fatal("expected error with all mirrors offline and no cache")
	}
}

func TestRefreshFailsClosedWhenQuorumUnavailable(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	w.mirrors[0].SetBehavior(mirror.Offline)
	w.mirrors[1].SetBehavior(mirror.Offline)
	if _, err := r.Refresh(); !errors.Is(err, quorum.ErrNoQuorum) {
		t.Fatalf("err = %v", err)
	}
	// The previously refreshed state keeps serving.
	if _, err := r.FetchPackage("app"); err != nil {
		t.Fatal(err)
	}
}

func TestFindingsSurfaceCVEPackages(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("cve-pkg", "1.0-r0",
		"adduser -S -s /bin/ash alpine\npasswd -d alpine\nadd-shell /bin/ash\n"))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	// The package is rejected (shell activation), AND its empty
	// password is reported as a finding — mirroring §4.2's disclosure
	// to the Alpine community.
	if _, ok := r.RejectedPackages()["cve-pkg"]; !ok {
		t.Fatalf("rejected = %v", r.RejectedPackages())
	}
	var sawPassword bool
	for _, f := range r.Findings() {
		if f.Package == "cve-pkg" && strings.Contains(f.Detail, "EMPTY password") {
			sawPassword = true
		}
	}
	if !sawPassword {
		t.Fatalf("findings = %+v", r.Findings())
	}
}

func TestHTTPScriptPreviewAndDiagnostics(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t,
		pkgWithScript("svc", "1.0-r0", "adduser -S svc\n"),
		pkgWithScript("shelly", "1.0-r0", "add-shell /bin/zsh\n"),
	)
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/policies", "application/yaml", strings.NewReader(string(w.policy)))
	if err != nil {
		t.Fatal(err)
	}
	var deployed struct {
		RepositoryID string `json:"repository_id"`
	}
	if err := jsonDecode(resp, &deployed); err != nil {
		t.Fatal(err)
	}
	resp, err = srv.Client().Post(srv.URL+"/repos/"+deployed.RepositoryID+"/refresh", "", nil)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("refresh: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Sanitized script preview.
	resp, err = srv.Client().Get(srv.URL + "/repos/" + deployed.RepositoryID + "/scripts/svc")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "TSR canonical account provisioning") {
		t.Fatalf("script preview: %d %q", resp.StatusCode, body)
	}

	// Rejected listing includes the shell package.
	resp, err = srv.Client().Get(srv.URL + "/repos/" + deployed.RepositoryID + "/rejected")
	if err != nil {
		t.Fatal(err)
	}
	var rejected map[string]string
	if err := jsonDecode(resp, &rejected); err != nil {
		t.Fatal(err)
	}
	if _, ok := rejected["shelly"]; !ok {
		t.Fatalf("rejected = %v", rejected)
	}

	// Fetching the rejected package through HTTP is a 403.
	resp, err = srv.Client().Get(srv.URL + "/repos/" + deployed.RepositoryID + "/packages/shelly")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Fatalf("rejected package status = %d", resp.StatusCode)
	}

	// Findings endpoint returns JSON.
	resp, err = srv.Client().Get(srv.URL + "/repos/" + deployed.RepositoryID + "/findings")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("findings: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Index before refresh of a fresh tenant: 503.
	resp, err = srv.Client().Post(srv.URL+"/policies", "application/yaml", strings.NewReader(string(w.policy)))
	if err != nil {
		t.Fatal(err)
	}
	var fresh struct {
		RepositoryID string `json:"repository_id"`
	}
	if err := jsonDecode(resp, &fresh); err != nil {
		t.Fatal(err)
	}
	resp, err = srv.Client().Get(srv.URL + "/repos/" + fresh.RepositoryID + "/index")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("uninitialized index status = %d", resp.StatusCode)
	}
}

func TestPolicyWhitelistBlacklist(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t,
		pkgWithScript("allowed", "1.0-r0", ""),
		pkgWithScript("blocked", "1.0-r0", ""),
		pkgWithScript("unlisted", "1.0-r0", ""),
	)
	// Private/closed policy variant (§4.5): whitelist two, blacklist one.
	pol := string(w.policy) +
		"package_whitelist:\n  - allowed\n  - blocked\npackage_blacklist:\n  - blocked\n"
	id, _, _, err := w.svc.DeployPolicy([]byte(pol))
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.svc.Repo(id)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 1 || stats.Rejected != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if _, err := r.FetchPackage("allowed"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"blocked", "unlisted"} {
		if _, err := r.FetchPackage(name); err == nil {
			t.Fatalf("%s served despite policy", name)
		}
	}
	reasons := r.RejectedPackages()
	if !strings.Contains(reasons["blocked"], "policy") || !strings.Contains(reasons["unlisted"], "policy") {
		t.Fatalf("reasons = %v", reasons)
	}
}

func TestParallelDownloadReducesModeledTime(t *testing.T) {
	build := func(parallel int) time.Duration {
		w := newWorld(t, 3)
		var pkgs []*apk.Package
		for i := 0; i < 8; i++ {
			p := pkgWithScript(fmt.Sprintf("pkg%d", i), "1.0-r0", "")
			p.Files[0].Content = make([]byte, 512<<10) // meaningful transfer time
			pkgs = append(pkgs, p)
		}
		w.publish(t, pkgs...)
		r := w.deploy(t)
		r.SetWorkers(parallel)
		stats, err := r.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Downloaded != 8 {
			t.Fatalf("downloaded = %d", stats.Downloaded)
		}
		return stats.DownloadTime
	}
	sequential := build(1)
	parallel := build(4)
	// Parallel transfers share bandwidth, so the win comes from
	// overlapping round trips: expect a clear but sub-linear speedup.
	if parallel >= sequential {
		t.Fatalf("parallel download %v not faster than sequential %v", parallel, sequential)
	}
}

func TestAppraisalEnforcedInstallThroughTSR(t *testing.T) {
	// IMA-appraisal (§3.2): the kernel refuses to load files without a
	// valid signature. Packages sanitized by TSR carry per-file
	// signatures, so installation under enforcement succeeds; a package
	// fetched from a plain mirror has none and is refused.
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("tool", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Through TSR: succeeds under appraisal.
	provisioning := keys.Shared.MustGet("os-provisioning")
	appraisalRing := keys.NewRing(r.PublicKey(), provisioning.Public())
	newEnforcedImage := func() *osimage.Image {
		img, err := osimage.New(keys.Shared.MustGet("os-ak"), r.Policy().InitConfigFiles)
		if err != nil {
			t.Fatal(err)
		}
		// Provision the golden image: label every base file before
		// enabling enforcement, as real IMA-appraisal deployments do.
		if err := img.LabelTree("/", provisioning); err != nil {
			t.Fatal(err)
		}
		img.IMA.EnableAppraisal(appraisalRing)
		return img
	}

	img := newEnforcedImage()
	mgr := pkgmgr.New(img, r, keys.NewRing(r.PublicKey()), keys.NewRing(r.PublicKey()))
	if err := mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Install("tool"); err != nil {
		t.Fatalf("appraised install through TSR failed: %v", err)
	}

	// Straight from the mirror: the binary has no security.ima
	// signature, so IMA-appraisal denies it at measurement time.
	img2 := newEnforcedImage()
	distroRing := keys.NewRing(w.signer.Public())
	mgr2 := pkgmgr.New(img2, w.mirrors[0], distroRing, distroRing)
	if err := mgr2.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr2.Install("tool"); err == nil {
		t.Fatal("unsigned install passed under IMA-appraisal enforcement")
	}
}

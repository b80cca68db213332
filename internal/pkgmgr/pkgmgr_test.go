package pkgmgr

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tsr/internal/apk"
	"tsr/internal/attest"
	"tsr/internal/ima"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/mirror"
	"tsr/internal/netsim"
	"tsr/internal/osimage"
	"tsr/internal/repo"
)

// fixture wires repository -> mirror -> manager -> OS image.
type fixture struct {
	repo   *repo.Repository
	mirror *mirror.Mirror
	img    *osimage.Image
	mgr    *Manager
	signer *keys.Pair
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	indexSigner := keys.Shared.MustGet("repo-index-signer")
	pkgSigner := keys.Shared.MustGet("alpine-pkg-signer")
	r := repo.New("alpine-main", indexSigner)
	m := mirror.New("https://mirror0/", netsim.Europe)
	img, err := osimage.New(keys.Shared.MustGet("os-ak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(img, m,
		keys.NewRing(indexSigner.Public()),
		keys.NewRing(pkgSigner.Public()))
	return &fixture{repo: r, mirror: m, img: img, mgr: mgr, signer: pkgSigner}
}

// publish signs and publishes packages, then syncs the mirror.
func (fx *fixture) publish(t *testing.T, pkgs ...*apk.Package) {
	t.Helper()
	for _, p := range pkgs {
		if err := apk.Sign(p, fx.signer); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.repo.Publish(pkgs...); err != nil {
		t.Fatal(err)
	}
	fx.mirror.Sync(fx.repo)
}

func signedFile(t *testing.T, signer *keys.Pair, path string, content []byte, mode uint32) apk.File {
	t.Helper()
	sig, err := ima.SignFileDigest(signer, content)
	if err != nil {
		t.Fatal(err)
	}
	return apk.File{
		Path: path, Mode: mode, Content: content,
		Xattrs: map[string][]byte{apk.XattrIMA: sig},
	}
}

func basicPkg(name, version string, deps ...string) *apk.Package {
	return &apk.Package{
		Name: name, Version: version, Depends: deps,
		Files: []apk.File{{Path: "/usr/bin/" + name, Mode: 0o755, Content: []byte(name + "-" + version)}},
	}
}

func TestRefreshAndInstall(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t, basicPkg("hello", "1.0-r0"))
	if _, err := fx.mgr.Install("hello"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("install before refresh: err = %v", err)
	}
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	rep, err := fx.mgr.Install("hello")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes == 0 {
		t.Fatal("report bytes = 0")
	}
	if !fx.mgr.IsInstalled("hello") {
		t.Fatal("not recorded installed")
	}
	got, err := fx.img.FS.ReadFile("/usr/bin/hello")
	if err != nil || string(got) != "hello-1.0-r0" {
		t.Fatalf("file = %q, %v", got, err)
	}
	// Installed DB rendered.
	db, err := fx.img.FS.ReadFile(DBPath)
	if err != nil || !strings.Contains(string(db), "hello 1.0-r0") {
		t.Fatalf("db = %q, %v", db, err)
	}
	// IMA measured the new file.
	var measured bool
	for _, e := range fx.img.IMA.Log() {
		if e.Path == "/usr/bin/hello" {
			measured = true
		}
	}
	if !measured {
		t.Fatal("installed file not measured")
	}
}

func TestInstallResolvesDependencies(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t,
		basicPkg("musl", "1.1-r0"),
		basicPkg("zlib", "1.2-r0", "musl"),
		basicPkg("app", "0.1-r0", "zlib", "musl"),
	)
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("app"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"musl", "zlib", "app"} {
		if !fx.mgr.IsInstalled(name) {
			t.Fatalf("%s not installed", name)
		}
	}
	names := fx.mgr.InstalledNames()
	if len(names) != 3 {
		t.Fatalf("installed = %v", names)
	}
}

func TestInstallDetectsDependencyCycle(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t,
		basicPkg("a", "1", "b"),
		basicPkg("b", "1", "a"),
	)
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("a"); !errors.Is(err, ErrDependencyCycle) {
		t.Fatalf("err = %v", err)
	}
}

func TestInstallRunsScripts(t *testing.T) {
	fx := newFixture(t)
	p := basicPkg("ntpd", "4.2-r0")
	p.Scripts = map[string]string{
		"pre-install":  "addgroup -S -g 123 ntp\nadduser -S -u 123 -s /sbin/nologin ntp\n",
		"post-install": "mkdir -p /var/lib/ntp\nchown ntp /var/lib/ntp\n",
	}
	fx.publish(t, p)
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("ntpd"); err != nil {
		t.Fatal(err)
	}
	passwd, _ := fx.img.FS.ReadFile(osimage.PasswdPath)
	if !strings.Contains(string(passwd), "ntp:x:123:") {
		t.Fatalf("passwd = %q", passwd)
	}
	info, err := fx.img.FS.Stat("/var/lib/ntp")
	if err != nil || info.Owner != "ntp" {
		t.Fatalf("dir = %+v, %v", info, err)
	}
}

func TestInstallMeasuresChangedConfig(t *testing.T) {
	fx := newFixture(t)
	p := basicPkg("svc", "1-r0")
	p.Scripts = map[string]string{"post-install": "adduser -S svc\n"}
	fx.publish(t, p)
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("svc"); err != nil {
		t.Fatal(err)
	}
	var passwdMeasured bool
	for _, e := range fx.img.IMA.Log() {
		if e.Path == osimage.PasswdPath {
			passwdMeasured = true
		}
	}
	if !passwdMeasured {
		t.Fatal("/etc/passwd change not measured — monitoring could not see it")
	}
}

func TestInstallExtractsXattrs(t *testing.T) {
	fx := newFixture(t)
	tsrKey := keys.Shared.MustGet("tsr-signing-key")
	p := &apk.Package{
		Name: "lib", Version: "1-r0",
		Files: []apk.File{signedFile(t, tsrKey, "/lib/lib.so", []byte("code"), 0o755)},
	}
	fx.publish(t, p)
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("lib"); err != nil {
		t.Fatal(err)
	}
	sig, err := fx.img.FS.GetXattr("/lib/lib.so", apk.XattrIMA)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != keys.SignatureSize {
		t.Fatalf("sig len = %d", len(sig))
	}
	// The IMA log entry carries the signature.
	for _, e := range fx.img.IMA.Log() {
		if e.Path == "/lib/lib.so" && len(e.Sig) == keys.SignatureSize {
			return
		}
	}
	t.Fatal("IMA log entry missing signature")
}

func TestInstallRejectsUntrustedSignature(t *testing.T) {
	fx := newFixture(t)
	evil := keys.Shared.MustGet("evil-signer")
	p := basicPkg("trojan", "1-r0")
	if err := apk.Sign(p, evil); err != nil {
		t.Fatal(err)
	}
	if err := fx.repo.Publish(p); err != nil {
		t.Fatal(err)
	}
	fx.mirror.Sync(fx.repo)
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("trojan"); !errors.Is(err, apk.ErrUntrusted) {
		t.Fatalf("err = %v", err)
	}
	if fx.mgr.IsInstalled("trojan") {
		t.Fatal("untrusted package recorded as installed")
	}
}

func TestInstallRejectsCorruptMirror(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t, basicPkg("hello", "1.0-r0"))
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	fx.mirror.SetBehavior(mirror.Corrupt)
	_, err := fx.mgr.Install("hello")
	if !errors.Is(err, ErrHashMismatch) && !errors.Is(err, apk.ErrFormat) {
		t.Fatalf("err = %v", err)
	}
}

// TestRefreshRejectsOlderSequence drives the rollback check directly.
func TestRefreshRejectsOlderSequence(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t, basicPkg("hello", "1.0-r0")) // seq 1
	// Capture a stale source before the repo advances.
	staleMirror := mirror.New("https://stale/", netsim.Europe)
	staleMirror.Sync(fx.repo)
	staleMirror.SetBehavior(mirror.Freeze)

	fx.publish(t, basicPkg("hello", "1.1-r0")) // seq 2
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Switch the manager to the stale mirror: replay attack.
	fx.mgr.src = staleMirror
	if err := fx.mgr.Refresh(); !errors.Is(err, index.ErrStale) {
		t.Fatalf("err = %v", err)
	}
}

// TestRefreshFailsClosedWithoutRing: a manager with no index ring
// cannot verify anything, so it accepts nothing.
func TestRefreshFailsClosedWithoutRing(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t, basicPkg("app", "1.0-r0"))
	fx.mgr.indexRing = nil
	if err := fx.mgr.Refresh(); !errors.Is(err, index.ErrUntrusted) {
		t.Fatalf("err = %v, want index.ErrUntrusted", err)
	}
	if fx.mgr.Index() != nil {
		t.Fatal("a ring-less manager accepted an index")
	}
}

func TestUpgradeReplacesFilesAndRunsHooks(t *testing.T) {
	fx := newFixture(t)
	v1 := &apk.Package{
		Name: "app", Version: "1.0-r0",
		Files: []apk.File{
			{Path: "/usr/bin/app", Mode: 0o755, Content: []byte("v1")},
			{Path: "/usr/share/app/legacy.dat", Mode: 0o644, Content: []byte("old")},
		},
	}
	fx.publish(t, v1)
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("app"); err != nil {
		t.Fatal(err)
	}

	v2 := &apk.Package{
		Name: "app", Version: "2.0-r0",
		Scripts: map[string]string{
			"pre-upgrade":  "mkdir -p /var/backup\n",
			"post-upgrade": "touch /var/backup/done\n",
		},
		Files: []apk.File{{Path: "/usr/bin/app", Mode: 0o755, Content: []byte("v2")}},
	}
	fx.publish(t, v2)
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Upgrade("app"); err != nil {
		t.Fatal(err)
	}
	got, _ := fx.img.FS.ReadFile("/usr/bin/app")
	if string(got) != "v2" {
		t.Fatalf("binary = %q", got)
	}
	if fx.img.FS.Exists("/usr/share/app/legacy.dat") {
		t.Fatal("dropped file survived upgrade")
	}
	if !fx.img.FS.Exists("/var/backup/done") {
		t.Fatal("post-upgrade hook not run")
	}
	if v, _ := fx.mgr.InstalledVersion("app"); v != "2.0-r0" {
		t.Fatalf("version = %s", v)
	}
}

// TestOneFileUpgradeMeasuresOneFile: upgrading an N-file package in
// which one file changed adds exactly one IMA log entry, for that file,
// and the image still attests clean against the package key.
func TestOneFileUpgradeMeasuresOneFile(t *testing.T) {
	fx := newFixture(t)
	if err := fx.img.IMA.MeasureTree("/etc"); err != nil {
		t.Fatal(err)
	}
	monitor := attest.NewVerifier(fx.img.TPM.AttestationKey(), keys.NewRing(fx.signer.Public()))
	monitor.WhitelistImage(fx.img)

	const n = 8
	version := func(v string, changed int) *apk.Package {
		p := &apk.Package{Name: "multi", Version: v}
		for i := 0; i < n; i++ {
			content := fmt.Sprintf("file %d of multi", i)
			if i == changed {
				content += " at " + v
			}
			p.Files = append(p.Files, signedFile(t, fx.signer, fmt.Sprintf("/usr/lib/multi/%d.so", i), []byte(content), 0o644))
		}
		return p
	}
	fx.publish(t, version("1.0-r0", -1))
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("multi"); err != nil {
		t.Fatal(err)
	}
	before := len(fx.img.IMA.Log())

	fx.publish(t, version("1.0-r1", 3))
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Upgrade("multi"); err != nil {
		t.Fatal(err)
	}
	added := fx.img.IMA.Log()[before:]
	if len(added) != 1 || added[0].Path != "/usr/lib/multi/3.so" {
		t.Fatalf("a one-file upgrade of %d files logged %+v, want one entry for /usr/lib/multi/3.so", n, added)
	}
	verdict, err := monitor.Attest(fx.img)
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.OK {
		t.Fatalf("image not IMA-clean after the upgrade: %+v", verdict.Violations())
	}
}

func TestUpgradeNotInstalled(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t, basicPkg("app", "1.0-r0"))
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Upgrade("app"); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t, basicPkg("app", "1.0-r0"))
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("app"); err != nil {
		t.Fatal(err)
	}
	if err := fx.mgr.Remove("app"); err != nil {
		t.Fatal(err)
	}
	if fx.mgr.IsInstalled("app") || fx.img.FS.Exists("/usr/bin/app") {
		t.Fatal("remove left traces")
	}
	if err := fx.mgr.Remove("app"); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("err = %v", err)
	}
}

func TestDoubleInstall(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t, basicPkg("app", "1.0-r0"))
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("app"); !errors.Is(err, ErrAlreadyInstalled) {
		t.Fatalf("err = %v", err)
	}
}

func TestNetModelChargesVirtualTime(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t, basicPkg("app", "1.0-r0"))
	clock := netsim.NewVirtualClock(time.Time{})
	fx.mgr.SetNetModel(&NetModel{
		Local:  netsim.Europe,
		Remote: netsim.Europe,
		Link:   netsim.DataCenterLinkModel(nil),
		Clock:  clock,
	})
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	rep, err := fx.mgr.Install("app")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Download <= 0 {
		t.Fatalf("download time = %v", rep.Download)
	}
	if clock.Now().Equal(time.Time{}) {
		t.Fatal("virtual clock did not advance")
	}
	if rep.Total() < rep.Download {
		t.Fatal("total < download")
	}
}

func TestForceVersion(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t, basicPkg("app", "1.0-r0"))
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("app"); err != nil {
		t.Fatal(err)
	}
	if err := fx.mgr.ForceVersion("app", "0.9-r0"); err != nil {
		t.Fatal(err)
	}
	if v, _ := fx.mgr.InstalledVersion("app"); v != "0.9-r0" {
		t.Fatalf("version = %s", v)
	}
	db, _ := fx.img.FS.ReadFile(DBPath)
	if !strings.Contains(string(db), "app 0.9-r0") {
		t.Fatalf("db = %q", db)
	}
	if err := fx.mgr.ForceVersion("ghost", "1"); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("err = %v", err)
	}
}

func TestInstallMissingPackage(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t, basicPkg("app", "1.0-r0"))
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install("ghost"); err == nil {
		t.Fatal("want error")
	}
}

// paddingSource wraps a Source and appends garbage to package bodies —
// the "endless data" attack the index size field defends against.
type paddingSource struct {
	Source
	extra int
}

func (p paddingSource) FetchPackage(name string) ([]byte, error) {
	raw, err := p.Source.FetchPackage(name)
	if err != nil {
		return nil, err
	}
	return append(raw, make([]byte, p.extra)...), nil
}

func TestInstallRejectsEndlessData(t *testing.T) {
	fx := newFixture(t)
	fx.publish(t, basicPkg("hello", "1.0-r0"))
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	fx.mgr.src = paddingSource{Source: fx.mirror, extra: 1 << 20}
	if _, err := fx.mgr.Install("hello"); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("err = %v", err)
	}
}

// substitutionSource serves a different (validly signed!) package body
// than the index entry promises — caught by the index hash.
type substitutionSource struct {
	Source
	raw []byte
}

func (s substitutionSource) FetchPackage(name string) ([]byte, error) {
	return s.raw, nil
}

func TestInstallRejectsSubstitutedPackage(t *testing.T) {
	fx := newFixture(t)
	evil := basicPkg("hello", "1.0-r0")
	evil.Files[0].Content = []byte("trojan payload")
	if err := apk.Sign(evil, fx.signer); err != nil {
		t.Fatal(err)
	}
	evilRaw, err := apk.Encode(evil)
	if err != nil {
		t.Fatal(err)
	}
	fx.publish(t, basicPkg("hello", "1.0-r0"))
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Same name, same version, same signer — but not the indexed bytes.
	fx.mgr.src = substitutionSource{Source: fx.mirror, raw: evilRaw}
	_, err = fx.mgr.Install("hello")
	if !errors.Is(err, ErrHashMismatch) && !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("err = %v", err)
	}
}

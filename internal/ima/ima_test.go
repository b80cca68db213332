package ima

import (
	"crypto/sha256"
	"errors"
	"testing"

	"tsr/internal/keys"
	"tsr/internal/tpm"
	"tsr/internal/vfs"
)

type fixture struct {
	fs  *vfs.FS
	tpm *tpm.TPM
	ima *IMA
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	fs := vfs.New()
	tp := tpm.New(keys.Shared.MustGet("ima-test-ak"))
	return &fixture{fs: fs, tpm: tp, ima: New(fs, tp)}
}

func TestMeasureFileAppendsLogAndExtendsPCR(t *testing.T) {
	fx := newFixture(t)
	if err := fx.fs.WriteFile("/usr/bin/x", []byte("binary"), 0o755); err != nil {
		t.Fatal(err)
	}
	before, _ := fx.tpm.PCR(tpm.PCRIMA)
	e, err := fx.ima.MeasureFile("/usr/bin/x")
	if err != nil {
		t.Fatal(err)
	}
	if e.Path != "/usr/bin/x" || e.FileHash != sha256.Sum256([]byte("binary")) {
		t.Fatalf("entry = %+v", e)
	}
	after, _ := fx.tpm.PCR(tpm.PCRIMA)
	if before == after {
		t.Fatal("PCR not extended")
	}
	if got := fx.ima.Log(); len(got) != 1 || got[0].Path != "/usr/bin/x" {
		t.Fatalf("log = %+v", got)
	}
}

func TestMeasureFilePicksUpXattrSignature(t *testing.T) {
	fx := newFixture(t)
	signer := keys.Shared.MustGet("distro-signer")
	content := []byte("lib content")
	sig, err := SignFileDigest(signer, content)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.fs.WriteFile("/lib/libz.so", content, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fx.fs.SetXattr("/lib/libz.so", XattrIMA, sig); err != nil {
		t.Fatal(err)
	}
	e, err := fx.ima.MeasureFile("/lib/libz.so")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Sig) != keys.SignatureSize {
		t.Fatalf("sig len = %d", len(e.Sig))
	}
	// The signature must verify against the signer via the digest.
	if _, err := keys.NewRing(signer.Public()).VerifyAnyDigest(e.FileHash, e.Sig); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureMissingFile(t *testing.T) {
	fx := newFixture(t)
	if _, err := fx.ima.MeasureFile("/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppraisalRejectsUnsigned(t *testing.T) {
	fx := newFixture(t)
	signer := keys.Shared.MustGet("distro-signer")
	fx.ima.EnableAppraisal(keys.NewRing(signer.Public()))
	if !fx.ima.AppraisalEnabled() {
		t.Fatal("appraisal not enabled")
	}
	if err := fx.fs.WriteFile("/usr/bin/unsigned", []byte("x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ima.MeasureFile("/usr/bin/unsigned"); !errors.Is(err, ErrAppraisal) {
		t.Fatalf("err = %v", err)
	}
	if len(fx.ima.Log()) != 0 {
		t.Fatal("denied file was logged")
	}
}

func TestAppraisalRejectsWrongSigner(t *testing.T) {
	fx := newFixture(t)
	trusted := keys.Shared.MustGet("distro-signer")
	rogue := keys.Shared.MustGet("rogue-signer")
	fx.ima.EnableAppraisal(keys.NewRing(trusted.Public()))
	content := []byte("evil")
	sig, err := SignFileDigest(rogue, content)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.fs.WriteFile("/usr/bin/evil", content, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fx.fs.SetXattr("/usr/bin/evil", XattrIMA, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ima.MeasureFile("/usr/bin/evil"); !errors.Is(err, ErrAppraisal) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppraisalRejectsModifiedContent(t *testing.T) {
	// Signature was issued for the original content; an adversary
	// modifying the file breaks appraisal.
	fx := newFixture(t)
	signer := keys.Shared.MustGet("distro-signer")
	fx.ima.EnableAppraisal(keys.NewRing(signer.Public()))
	orig := []byte("original")
	sig, err := SignFileDigest(signer, orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.fs.WriteFile("/usr/bin/app", []byte("modified"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fx.fs.SetXattr("/usr/bin/app", XattrIMA, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ima.MeasureFile("/usr/bin/app"); !errors.Is(err, ErrAppraisal) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppraisalAcceptsValid(t *testing.T) {
	fx := newFixture(t)
	signer := keys.Shared.MustGet("distro-signer")
	fx.ima.EnableAppraisal(keys.NewRing(signer.Public()))
	content := []byte("good")
	sig, err := SignFileDigest(signer, content)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.fs.WriteFile("/usr/bin/good", content, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fx.fs.SetXattr("/usr/bin/good", XattrIMA, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ima.MeasureFile("/usr/bin/good"); err != nil {
		t.Fatal(err)
	}
}

func TestReplayPCRMatchesTPM(t *testing.T) {
	fx := newFixture(t)
	for _, f := range []struct{ p, c string }{
		{"/bin/sh", "shell"},
		{"/etc/passwd", "root:x:0:0\n"},
		{"/lib/ld.so", "loader"},
	} {
		if err := fx.fs.WriteFile(f.p, []byte(f.c), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.ima.MeasureFile(f.p); err != nil {
			t.Fatal(err)
		}
	}
	replayed := ReplayPCR(fx.ima.Log())
	actual, _ := fx.tpm.PCR(tpm.PCRIMA)
	if replayed != actual {
		t.Fatal("log replay does not match TPM PCR")
	}
}

func TestReplayPCRDetectsLogTamper(t *testing.T) {
	fx := newFixture(t)
	if err := fx.fs.WriteFile("/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ima.MeasureFile("/f"); err != nil {
		t.Fatal(err)
	}
	log := fx.ima.Log()
	log[0].FileHash = sha256.Sum256([]byte("forged"))
	actual, _ := fx.tpm.PCR(tpm.PCRIMA)
	if ReplayPCR(log) == actual {
		t.Fatal("tampered log still replays to the same PCR")
	}
}

func TestMeasureTree(t *testing.T) {
	fx := newFixture(t)
	for _, p := range []string{"/app/bin/x", "/app/etc/conf", "/other/y"} {
		if err := fx.fs.WriteFile(p, []byte(p), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.ima.MeasureTree("/app"); err != nil {
		t.Fatal(err)
	}
	log := fx.ima.Log()
	if len(log) != 2 {
		t.Fatalf("log = %+v", log)
	}
	// Deterministic path order.
	if log[0].Path != "/app/bin/x" || log[1].Path != "/app/etc/conf" {
		t.Fatalf("order = %v, %v", log[0].Path, log[1].Path)
	}
}

func TestTemplateHashBindsPathAndSig(t *testing.T) {
	base := Entry{PCR: 10, Path: "/a", FileHash: sha256.Sum256([]byte("x"))}
	diffPath := base
	diffPath.Path = "/b"
	if base.TemplateHash() == diffPath.TemplateHash() {
		t.Fatal("template hash ignores path")
	}
	diffSig := base
	diffSig.Sig = []byte{1}
	if base.TemplateHash() == diffSig.TemplateHash() {
		t.Fatal("template hash ignores signature")
	}
}

func TestMeasureWithoutTPM(t *testing.T) {
	fs := vfs.New()
	m := New(fs, nil)
	if err := fs.WriteFile("/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MeasureFile("/f"); !errors.Is(err, ErrNoTPM) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppraisalTogglesMidStream(t *testing.T) {
	// Files measured before enforcement stay in the log; enforcement
	// only gates subsequent measurements — matching IMA's behavior when
	// the appraise policy is switched to enforce.
	fx := newFixture(t)
	if err := fx.fs.WriteFile("/early", []byte("pre-enforcement"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ima.MeasureFile("/early"); err != nil {
		t.Fatal(err)
	}
	signer := keys.Shared.MustGet("distro-signer")
	fx.ima.EnableAppraisal(keys.NewRing(signer.Public()))
	if err := fx.fs.WriteFile("/late", []byte("post"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ima.MeasureFile("/late"); err == nil {
		t.Fatal("unsigned post-enforcement file accepted")
	}
	if got := len(fx.ima.Log()); got != 1 {
		t.Fatalf("log = %d entries", got)
	}
}

func TestMeasureFileTwiceExtendsTwice(t *testing.T) {
	// IMA measures on each (re)load of changed content; our model
	// appends an entry per MeasureFile call, and replay still matches.
	fx := newFixture(t)
	if err := fx.fs.WriteFile("/f", []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ima.MeasureFile("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fx.fs.WriteFile("/f", []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ima.MeasureFile("/f"); err != nil {
		t.Fatal(err)
	}
	log := fx.ima.Log()
	if len(log) != 2 || log[0].FileHash == log[1].FileHash {
		t.Fatalf("log = %+v", log)
	}
	pcr, _ := fx.tpm.PCR(tpm.PCRIMA)
	if ReplayPCR(log) != pcr {
		t.Fatal("replay mismatch after re-measurement")
	}
}

// TestMeasureChangedSkipsUnchangedContent: a file whose content still
// hashes to the hash it was last measured with is neither logged nor
// extended; once it changes, it is measured like MeasureFile measures
// it. Both answers carry the current content hash.
func TestMeasureChangedSkipsUnchangedContent(t *testing.T) {
	fx := newFixture(t)
	if err := fx.fs.WriteFile("/usr/bin/x", []byte("v1"), 0o755); err != nil {
		t.Fatal(err)
	}
	first, err := fx.ima.MeasureChanged("/usr/bin/x", [32]byte{})
	if err != nil || first.FileHash != sha256.Sum256([]byte("v1")) || len(fx.ima.Log()) != 1 {
		t.Fatalf("first measurement = %+v, err %v, log %d entries", first, err, len(fx.ima.Log()))
	}
	pcr, _ := fx.tpm.PCR(tpm.PCRIMA)
	again, err := fx.ima.MeasureChanged("/usr/bin/x", first.FileHash)
	if err != nil || again.FileHash != first.FileHash {
		t.Fatalf("unchanged re-measurement = %+v, err %v", again, err)
	}
	if now, _ := fx.tpm.PCR(tpm.PCRIMA); now != pcr || len(fx.ima.Log()) != 1 {
		t.Fatal("an unchanged file was logged or extended")
	}
	if err := fx.fs.WriteFile("/usr/bin/x", []byte("v2"), 0o755); err != nil {
		t.Fatal(err)
	}
	if e, err := fx.ima.MeasureChanged("/usr/bin/x", first.FileHash); err != nil || e.FileHash != sha256.Sum256([]byte("v2")) || len(fx.ima.Log()) != 2 {
		t.Fatalf("changed re-measurement = %+v, err %v, log %d entries", e, err, len(fx.ima.Log()))
	}
	if _, err := fx.ima.MeasureChanged("/missing", [32]byte{}); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want vfs.ErrNotExist", err)
	}
	if got := len(fx.ima.Log()); got != 2 {
		t.Fatalf("log holds %d entries, want 2", got)
	}
}

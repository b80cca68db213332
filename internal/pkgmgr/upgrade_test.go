package pkgmgr

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"tsr/internal/apk"
	"tsr/internal/attest"
	"tsr/internal/keys"
	"tsr/internal/vfs"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// multiFile is a package of n signed files of size bytes each, in which
// the file numbered changed (none when negative) carries the version.
func multiFile(t *testing.T, signer *keys.Pair, version string, n, size, changed int) *apk.Package {
	t.Helper()
	p := &apk.Package{Name: "multi", Version: version}
	for i := 0; i < n; i++ {
		content := bytes.Repeat([]byte(fmt.Sprintf("file %d of multi;", i)), size)[:size]
		if i == changed {
			copy(content, version)
		}
		p.Files = append(p.Files, signedFile(t, signer, fmt.Sprintf("/usr/lib/multi/%02d.so", i), content, 0o644))
	}
	return p
}

// installMulti publishes and installs multi at version.
func installMulti(t *testing.T, fx *fixture, p *apk.Package) {
	t.Helper()
	fx.publish(t, p)
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Install(p.Name); err != nil {
		t.Fatal(err)
	}
}

// TestOneFileUpgradeAllocBudget: a one-file upgrade of a 32-file package
// allocates the changed file, per-file metadata (paths, xattrs, tar
// headers) and a constant, not a copy of every file: an unchanged file
// is compared in place and kept as a view of the installed bytes.
func TestOneFileUpgradeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	// Per file, the tar reader's header and PAX records, the path, the
	// xattr map and its IMA signature measured about 3.2 KiB, the rest
	// about 7 KiB; a second copy of the changed file breaks the budget.
	const (
		files    = 32
		fileSize = 32 << 10
		perFile  = 3584
		constant = 16 << 10
	)
	fx := newFixture(t)
	installMulti(t, fx, multiFile(t, fx.signer, "1.0-r0", files, fileSize, -1))
	best := uint64(1<<63 - 1)
	for r := 1; r <= 4; r++ {
		fx.publish(t, multiFile(t, fx.signer, fmt.Sprintf("1.0-r%d", r), files, fileSize, files-1))
		if err := fx.mgr.Refresh(); err != nil {
			t.Fatal(err)
		}
		// Publishing collected the pooled codec; refill it, with GC off
		// so that it stays, as a client's steady state has it.
		gc := debug.SetGCPercent(-1)
		raw, err := fx.mirror.FetchPackage("multi")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := apk.Walk(raw, keys.NewRing(fx.signer.Public()), func(*apk.File) error { return nil }); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = fx.mgr.Upgrade("multi")
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if budget := uint64(fileSize + files*perFile + constant); best > budget {
		t.Fatalf("a one-file upgrade of %d files of %d B allocates %d B, budget %d", files, fileSize, best, budget)
	}
	got, err := fx.img.FS.ReadFile(fmt.Sprintf("/usr/lib/multi/%02d.so", files-1))
	if err != nil || !bytes.HasPrefix(got, []byte("1.0-r4")) {
		t.Fatalf("the changed file holds %.8q (%v), want the last version's", got, err)
	}
}

// TestUpgradeRestoresFilesTheScriptTouched: a pre-upgrade script that
// overwrites one shipped, unchanged file and removes another does not
// outlast the upgrade: both end with the package's bytes, which the IMA
// log shows, and the image attests clean.
func TestUpgradeRestoresFilesTheScriptTouched(t *testing.T) {
	fx := newFixture(t)
	if err := fx.img.IMA.MeasureTree("/etc"); err != nil {
		t.Fatal(err)
	}
	monitor := attest.NewVerifier(fx.img.TPM.AttestationKey(), keys.NewRing(fx.signer.Public()))
	monitor.WhitelistImage(fx.img)
	installMulti(t, fx, multiFile(t, fx.signer, "1.0-r0", 8, 64, -1))

	v2 := multiFile(t, fx.signer, "1.0-r1", 8, 64, 3)
	v2.Scripts = map[string]string{"pre-upgrade": "echo overwritten > /usr/lib/multi/01.so\nrm /usr/lib/multi/02.so\n"}
	fx.publish(t, v2)
	if err := fx.mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgr.Upgrade("multi"); err != nil {
		t.Fatal(err)
	}
	log := fx.img.IMA.Log()
	for _, f := range v2.Files[1:3] {
		got, err := fx.img.FS.ReadFile(f.Path)
		if err != nil || !bytes.Equal(got, f.Content) {
			t.Fatalf("%s holds %q (%v) after the upgrade, want the package's %q", f.Path, got, err, f.Content)
		}
		var last [32]byte
		for _, e := range log {
			if e.Path == f.Path {
				last = e.FileHash
			}
		}
		if last != sha256.Sum256(f.Content) {
			t.Fatalf("the IMA log's last measurement of %s is not of the package's bytes", f.Path)
		}
	}
	verdict, err := monitor.Attest(fx.img)
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.OK {
		t.Fatalf("image not IMA-clean after the upgrade: %+v", verdict.Violations())
	}
}

// imageState is every node of fs: path, type, mode, content and IMA
// signature.
func imageState(t *testing.T, fs *vfs.FS) map[string]string {
	t.Helper()
	state := make(map[string]string)
	err := fs.Walk("/", func(info vfs.FileInfo) error {
		s := fmt.Sprintf("%v %o %s", info.Type, info.Mode, info.Owner)
		if info.Type == vfs.Regular {
			content, err := fs.ReadFile(info.Path)
			if err != nil {
				return err
			}
			sig, _ := fs.GetXattr(info.Path, apk.XattrIMA)
			s += fmt.Sprintf(" %x %x", content, sig)
		}
		state[info.Path] = s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// spliceData is head's signature and control members followed by
// body's data member: a package whose signature still covers its
// control segment, but whose datahash does not describe its data.
func spliceData(t *testing.T, head, body []byte) []byte {
	t.Helper()
	// headLen is the length of raw's first two gzip members; reading
	// from a bytes.Reader, gzip consumes exactly a member.
	headLen := func(raw []byte) int {
		r := bytes.NewReader(raw)
		for i := 0; i < 2; i++ {
			zr, err := gzip.NewReader(r)
			if err != nil {
				t.Fatal(err)
			}
			zr.Multistream(false)
			if _, err := io.Copy(io.Discard, zr); err != nil {
				t.Fatal(err)
			}
		}
		return len(raw) - r.Len()
	}
	return append(append([]byte(nil), head[:headLen(head)]...), body[headLen(body):]...)
}

// TestRejectedUpgradeTouchesNothing: an upgrade whose package fails the
// datahash or the signature check leaves the image byte-identical, runs
// no script and measures nothing, though its bytes match the index.
func TestRejectedUpgradeTouchesNothing(t *testing.T) {
	evil := keys.Shared.MustGet("evil-signer")
	for _, tc := range []struct {
		name string
		raw  func(t *testing.T, fx *fixture, p *apk.Package) []byte
		want error
	}{
		{"bad datahash", func(t *testing.T, fx *fixture, p *apk.Package) []byte {
			if err := apk.Sign(p, fx.signer); err != nil {
				t.Fatal(err)
			}
			signed := mustEncode(t, p)
			p.Files[0].Content = []byte("trojan payload")
			return spliceData(t, signed, mustEncode(t, p))
		}, apk.ErrContentHash},
		{"bad signature", func(t *testing.T, fx *fixture, p *apk.Package) []byte {
			if err := apk.Sign(p, evil); err != nil {
				t.Fatal(err)
			}
			return mustEncode(t, p)
		}, apk.ErrUntrusted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t)
			installMulti(t, fx, multiFile(t, fx.signer, "1.0-r0", 4, 64, -1))
			v2 := multiFile(t, fx.signer, "1.0-r1", 4, 64, 1)
			v2.Scripts = map[string]string{
				"pre-upgrade":  "touch /var/pre-upgrade-ran\n",
				"post-upgrade": "touch /var/post-upgrade-ran\n",
			}
			if err := fx.repo.PublishRaw(v2.Name, v2.Version, nil, tc.raw(t, fx, v2)); err != nil {
				t.Fatal(err)
			}
			fx.mirror.Sync(fx.repo)
			if err := fx.mgr.Refresh(); err != nil {
				t.Fatal(err)
			}
			before, logged := imageState(t, fx.img.FS), len(fx.img.IMA.Log())
			if _, err := fx.mgr.Upgrade("multi"); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if after := imageState(t, fx.img.FS); !reflect.DeepEqual(after, before) {
				t.Fatal("a rejected upgrade changed the image")
			}
			if n := len(fx.img.IMA.Log()); n != logged {
				t.Fatalf("a rejected upgrade added %d IMA log entries", n-logged)
			}
			if v, _ := fx.mgr.InstalledVersion("multi"); v != "1.0-r0" {
				t.Fatalf("installed version = %s after a rejected upgrade", v)
			}
		})
	}
}

func mustEncode(t *testing.T, p *apk.Package) []byte {
	t.Helper()
	raw, err := apk.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

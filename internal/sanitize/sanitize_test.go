package sanitize

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tsr/internal/apk"
	"tsr/internal/attest"
	"tsr/internal/enclave"
	"tsr/internal/keys"
	"tsr/internal/osimage"
	"tsr/internal/policy"
	"tsr/internal/script"
	"tsr/internal/workload"
)

// fixtures ------------------------------------------------------------

func upstream(t testing.TB) *keys.Pair { t.Helper(); return keys.Shared.MustGet("alpine-pkg-signer") }
func tsrKey(t testing.TB) *keys.Pair   { t.Helper(); return keys.Shared.MustGet("tsr-repo-key") }

var initFiles = []policy.ConfigFile{
	{Path: osimage.PasswdPath, Content: "root:x:0:0:root:/root:/bin/ash\n"},
	{Path: osimage.GroupPath, Content: "root:x:0:\n"},
}

// buildPlan scans the given packages.
func buildPlan(t testing.TB, pkgs ...*apk.Package) *Plan {
	t.Helper()
	plan, err := BuildPlan(&SliceSource{Packages: pkgs}, initFiles, tsrKey(t))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func sanitizer(t testing.TB, plan *Plan) *Sanitizer {
	t.Helper()
	return &Sanitizer{
		Plan:      plan,
		TrustRing: keys.NewRing(upstream(t).Public()),
		SignKey:   tsrKey(t),
		EPC:       enclave.DefaultCostModel(),
	}
}

func signedPkg(t testing.TB, name string, scripts map[string]string, files ...apk.File) *apk.Package {
	t.Helper()
	if files == nil {
		files = []apk.File{{Path: "/usr/bin/" + name, Mode: 0o755, Content: []byte(name)}}
	}
	p := &apk.Package{Name: name, Version: "1.0-r0", Scripts: scripts, Files: files}
	if err := apk.Sign(p, upstream(t)); err != nil {
		t.Fatal(err)
	}
	return p
}

func encode(t testing.TB, p *apk.Package) []byte {
	t.Helper()
	raw, err := apk.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// sanitized decodes a Sanitize result's wire form.
func sanitized(t *testing.T, res *Result) *apk.Package {
	t.Helper()
	p, err := apk.Decode(res.Raw)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// plan tests -----------------------------------------------------------

func TestBuildPlanCollectsAccountsSorted(t *testing.T) {
	pkgA := signedPkg(t, "a", map[string]string{"post-install": "addgroup -S zeta\nadduser -S -G zeta zeta\n"})
	pkgB := signedPkg(t, "b", map[string]string{"post-install": "addgroup -S alpha\nadduser -S -G alpha alpha\n"})
	plan := buildPlan(t, pkgA, pkgB)
	// Canonical order is sorted, regardless of scan order.
	alphaIdx := strings.Index(plan.Preamble, "alpha")
	zetaIdx := strings.Index(plan.Preamble, "zeta")
	if alphaIdx < 0 || zetaIdx < 0 || alphaIdx > zetaIdx {
		t.Fatalf("preamble order wrong:\n%s", plan.Preamble)
	}
	// Predicted passwd contains both users with fixed UIDs.
	passwd := string(plan.PredictedConfig[osimage.PasswdPath])
	if !strings.Contains(passwd, "alpha:x:200:") || !strings.Contains(passwd, "zeta:x:201:") {
		t.Fatalf("predicted passwd:\n%s", passwd)
	}
}

func TestBuildPlanSignsPredictions(t *testing.T) {
	pkg := signedPkg(t, "svc", map[string]string{"post-install": "adduser -S svc\n"})
	plan := buildPlan(t, pkg)
	ring := keys.NewRing(tsrKey(t).Public())
	for path, content := range plan.PredictedConfig {
		sig := plan.ConfigSigs[path]
		if _, err := ring.VerifyAny(content, sig); err != nil {
			t.Fatalf("%s: prediction signature invalid: %v", path, err)
		}
	}
	if len(plan.EmptyFileSig) != keys.SignatureSize {
		t.Fatalf("empty file sig len = %d", len(plan.EmptyFileSig))
	}
}

func TestBuildPlanFlagsEmptyPassword(t *testing.T) {
	cve := signedPkg(t, "cve-pkg", map[string]string{
		"post-install": "adduser -S -s /bin/ash alpine\npasswd -d alpine\n",
	})
	plan := buildPlan(t, cve)
	if len(plan.Findings) < 2 {
		t.Fatalf("findings = %+v, want empty-password and interactive-shell findings", plan.Findings)
	}
	var passwordFinding bool
	for _, f := range plan.Findings {
		if f.Package == "cve-pkg" && strings.Contains(f.Detail, "EMPTY password") {
			passwordFinding = true
		}
	}
	if !passwordFinding {
		t.Fatalf("findings = %+v", plan.Findings)
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	mk := func() *Plan {
		return buildPlan(t,
			signedPkg(t, "a", map[string]string{"post-install": "adduser -S ua\n"}),
			signedPkg(t, "b", map[string]string{"post-install": "adduser -S ub\naddgroup -S gb\n"}),
		)
	}
	p1, p2 := mk(), mk()
	if p1.Preamble != p2.Preamble {
		t.Fatal("preamble not deterministic")
	}
	for path := range p1.PredictedConfig {
		if string(p1.PredictedConfig[path]) != string(p2.PredictedConfig[path]) {
			t.Fatalf("%s prediction not deterministic", path)
		}
	}
}

// sanitize tests --------------------------------------------------------

func TestSanitizeSignsEveryFile(t *testing.T) {
	p := signedPkg(t, "tool", nil,
		apk.File{Path: "/usr/bin/tool", Mode: 0o755, Content: []byte("bin")},
		apk.File{Path: "/usr/lib/tool/lib.so", Mode: 0o644, Content: []byte("lib")},
	)
	s := sanitizer(t, buildPlan(t, p))
	res, err := s.Sanitize(encode(t, p))
	if err != nil {
		t.Fatal(err)
	}
	ring := keys.NewRing(tsrKey(t).Public())
	for _, f := range sanitized(t, res).Files {
		sig, ok := f.Xattrs[apk.XattrIMA]
		if !ok {
			t.Fatalf("%s: no IMA signature", f.Path)
		}
		if _, err := ring.VerifyAny(f.Content, sig); err != nil {
			t.Fatalf("%s: %v", f.Path, err)
		}
	}
	// The sanitized package is signed by TSR, not the upstream signer.
	if _, ok := sanitized(t, res).Signatures[tsrKey(t).Name]; !ok {
		t.Fatal("no TSR package signature")
	}
	if _, ok := sanitized(t, res).Signatures[upstream(t).Name]; ok {
		t.Fatal("upstream signature should be replaced")
	}
	// And the wire form verifies against the TSR key.
	if _, _, err := apk.VerifyRaw(res.Raw, ring); err != nil {
		t.Fatal(err)
	}
}

// untrustedPkg is signed by a key the sanitizer's ring does not hold.
func untrustedPkg(t testing.TB) *apk.Package {
	t.Helper()
	p := &apk.Package{Name: "evil", Version: "1", Files: []apk.File{{Path: "/e", Mode: 0o644, Content: []byte("x")}}}
	if err := apk.Sign(p, keys.Shared.MustGet("evil-signer")); err != nil {
		t.Fatal(err)
	}
	return p
}

// configChangePkg's script rewrites a configuration file in place.
func configChangePkg(t testing.TB) *apk.Package {
	return signedPkg(t, "roundcubemail", map[string]string{
		"post-install": "sed -i s/old/new/ /etc/roundcube.conf\n",
	})
}

// shellActivationPkg's script activates a login shell.
func shellActivationPkg(t testing.TB) *apk.Package {
	return signedPkg(t, "bash", map[string]string{"post-install": "add-shell /bin/bash\n"})
}

func TestSanitizeRejectsUntrustedUpstream(t *testing.T) {
	s := sanitizer(t, buildPlan(t))
	if _, err := s.Sanitize(encode(t, untrustedPkg(t))); !errors.Is(err, apk.ErrUntrusted) {
		t.Fatalf("err = %v", err)
	}
}

func TestSanitizeRewritesAccountScript(t *testing.T) {
	p := signedPkg(t, "ntpd", map[string]string{
		"post-install": "addgroup -S ntp\nadduser -S -G ntp ntp\nmkdir -p /var/lib/ntp\n",
	})
	s := sanitizer(t, buildPlan(t, p))
	res, err := s.Sanitize(encode(t, p))
	if err != nil {
		t.Fatal(err)
	}
	out := sanitized(t, res).Scripts["post-install"]
	// Preamble present, original adduser removed, mkdir kept, setfattr
	// installs the predicted config signatures.
	if !strings.Contains(out, "TSR canonical account provisioning") {
		t.Fatalf("no preamble:\n%s", out)
	}
	if !strings.Contains(out, "mkdir -p /var/lib/ntp") {
		t.Fatalf("original filesystem op lost:\n%s", out)
	}
	if !strings.Contains(out, "setfattr -n security.ima") {
		t.Fatalf("no signature installation:\n%s", out)
	}
	// Exactly one adduser per planned user (from the preamble), no
	// leftover unparameterized adduser.
	if strings.Contains(out, "adduser -S -G ntp ntp") {
		t.Fatalf("original adduser survived:\n%s", out)
	}
}

func TestSanitizeRejectsConfigChange(t *testing.T) {
	s := sanitizer(t, buildPlan(t))
	if _, err := s.Sanitize(encode(t, configChangePkg(t))); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}

func TestSanitizeRejectsShellActivation(t *testing.T) {
	s := sanitizer(t, buildPlan(t))
	if _, err := s.Sanitize(encode(t, shellActivationPkg(t))); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}

func TestSanitizeStripsEmptyPassword(t *testing.T) {
	p := signedPkg(t, "cve", map[string]string{
		"post-install": "adduser -S -s /bin/ash alpine\npasswd -d alpine\n",
	})
	s := sanitizer(t, buildPlan(t, p))
	res, err := s.Sanitize(encode(t, p))
	if err != nil {
		t.Fatal(err)
	}
	out := sanitized(t, res).Scripts["post-install"]
	if strings.Contains(out, "passwd -d") {
		t.Fatalf("passwd -d survived sanitization:\n%s", out)
	}
	// The predicted shadow locks the account.
	shadow := string(s.Plan.PredictedConfig[osimage.ShadowPath])
	if !strings.Contains(shadow, "alpine:!:") {
		t.Fatalf("shadow = %q", shadow)
	}
}

func TestSanitizeTouchGetsSignature(t *testing.T) {
	p := signedPkg(t, "pidpkg", map[string]string{
		"post-install": "adduser -S pid\ntouch /var/run/pid.pid\n",
	})
	s := sanitizer(t, buildPlan(t, p))
	res, err := s.Sanitize(encode(t, p))
	if err != nil {
		t.Fatal(err)
	}
	out := sanitized(t, res).Scripts["post-install"]
	idx := strings.Index(out, "touch /var/run/pid.pid")
	if idx < 0 {
		t.Fatalf("touch lost:\n%s", out)
	}
	rest := out[idx:]
	if !strings.Contains(rest, "setfattr -n security.ima") || !strings.Contains(rest, "/var/run/pid.pid") {
		t.Fatalf("no signature install after touch:\n%s", out)
	}
}

func TestSanitizeSizeOverhead(t *testing.T) {
	// Many small files: signatures dominate (Figure 9's top-left).
	var files []apk.File
	for i := 0; i < 50; i++ {
		files = append(files, apk.File{
			Path: "/usr/share/x/f" + string(rune('a'+i%26)) + string(rune('0'+i/26)), Mode: 0o644,
			Content: []byte{byte(i)},
		})
	}
	p := signedPkg(t, "manysmall", nil, files...)
	s := sanitizer(t, buildPlan(t, p))
	res, err := s.Sanitize(encode(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if res.SizeOverheadPercent() < 50 {
		t.Fatalf("size overhead = %.1f%%, want large for many small files", res.SizeOverheadPercent())
	}
	if res.FileCount != 50 {
		t.Fatalf("file count = %d", res.FileCount)
	}
}

func TestSanitizeEPCModel(t *testing.T) {
	small := signedPkg(t, "small", nil)
	s := sanitizer(t, buildPlan(t, small))
	res, err := s.Sanitize(encode(t, small))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExceedsEPC {
		t.Fatal("small package marked as exceeding EPC")
	}
	if res.SGXOverhead <= 0 {
		t.Fatal("no SGX overhead modeled")
	}
	if res.InSGXTime() <= res.Phases.Total() {
		t.Fatal("in-SGX time not larger than native")
	}
	// Disabled model: no overhead.
	s.EPC = enclave.CostModel{}
	res2, err := s.Sanitize(encode(t, small))
	if err != nil {
		t.Fatal(err)
	}
	if res2.SGXOverhead != 0 {
		t.Fatalf("overhead with disabled model = %v", res2.SGXOverhead)
	}
}

func TestSanitizedScriptsParseAndRender(t *testing.T) {
	p := signedPkg(t, "ntpd", map[string]string{
		"pre-install":  "adduser -S ntp\n",
		"post-install": "mkdir -p /var/lib/ntp\nadduser -S ntp\n",
	})
	s := sanitizer(t, buildPlan(t, p))
	res, err := s.Sanitize(encode(t, p))
	if err != nil {
		t.Fatal(err)
	}
	for hook, src := range sanitized(t, res).Scripts {
		if _, err := script.Parse(src); err != nil {
			t.Fatalf("%s does not reparse: %v\n%s", hook, err, src)
		}
	}
}

// The headline end-to-end property: installing sanitized packages in
// ANY order yields the SAME OS configuration, equal to the prediction,
// and the predicted config signature verifies against it.
func TestSanitizedInstallOrderIndependence(t *testing.T) {
	pkgA := signedPkg(t, "svc-a", map[string]string{"post-install": "addgroup -S sa\nadduser -S -G sa sa\n"})
	pkgB := signedPkg(t, "svc-b", map[string]string{"post-install": "addgroup -S sb\nadduser -S -G sb sb\n"})
	plan := buildPlan(t, pkgA, pkgB)
	s := sanitizer(t, plan)

	resA, err := s.Sanitize(encode(t, pkgA))
	if err != nil {
		t.Fatal(err)
	}
	resB, err := s.Sanitize(encode(t, pkgB))
	if err != nil {
		t.Fatal(err)
	}

	run := func(order ...*Result) string {
		img, err := osimage.New(keys.Shared.MustGet("os-ak"), initFiles)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range order {
			parsed := script.MustParse(sanitized(t, r).Scripts["post-install"])
			if err := script.Exec(parsed, img); err != nil {
				t.Fatal(err)
			}
		}
		fp, err := img.ConfigFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		// The actual passwd equals the prediction.
		passwd, _ := img.FS.ReadFile(osimage.PasswdPath)
		if string(passwd) != string(plan.PredictedConfig[osimage.PasswdPath]) {
			t.Fatalf("prediction mismatch:\n%q\nvs\n%q", passwd, plan.PredictedConfig[osimage.PasswdPath])
		}
		return fp
	}
	ab := run(resA, resB)
	ba := run(resB, resA)
	aOnly := run(resA)
	if ab != ba {
		t.Fatal("sanitized installs are order-dependent")
	}
	if ab != aOnly {
		t.Fatal("single sanitized install differs from pair (preamble not complete)")
	}
}

// End-to-end with attestation: a sanitized update on an appraising OS
// attests clean (no false positive), and the xattr-installed config
// signatures verify.
func TestSanitizedUpdateAttestsClean(t *testing.T) {
	pkg := signedPkg(t, "svc", map[string]string{"post-install": "addgroup -S svc\nadduser -S -G svc svc\n"})
	plan := buildPlan(t, pkg)
	s := sanitizer(t, plan)
	res, err := s.Sanitize(encode(t, pkg))
	if err != nil {
		t.Fatal(err)
	}

	img, err := osimage.New(keys.Shared.MustGet("os-ak"), initFiles)
	if err != nil {
		t.Fatal(err)
	}
	verifier := attest.NewVerifier(img.TPM.AttestationKey(), keys.NewRing(tsrKey(t).Public()))
	if err := img.IMA.MeasureTree("/etc"); err != nil {
		t.Fatal(err)
	}
	verifier.WhitelistImage(img)

	// "Install": run the sanitized script, extract files with xattrs.
	if err := script.Exec(script.MustParse(sanitized(t, res).Scripts["post-install"]), img); err != nil {
		t.Fatal(err)
	}
	for _, f := range sanitized(t, res).Files {
		if err := img.FS.WriteFile(f.Path, f.Content, f.Mode); err != nil {
			t.Fatal(err)
		}
		for name, v := range f.Xattrs {
			if err := img.FS.SetXattr(f.Path, name, v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := img.IMA.MeasureFile(f.Path); err != nil {
			t.Fatal(err)
		}
	}
	// Re-measure the changed configuration files.
	for _, p := range osimage.ConfigDigestPaths() {
		if img.FS.Exists(p) {
			if _, err := img.IMA.MeasureFile(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	result, err := verifier.Attest(img)
	if err != nil {
		t.Fatal(err)
	}
	if !result.OK {
		t.Fatalf("violations after sanitized update: %+v", result.Violations())
	}
}

// Property: sanitization is deterministic — the same input bytes under
// the same plan always produce identical output bytes. This is what the
// TSR cache-tamper defense relies on (re-sanitization must reproduce
// the indexed hash exactly).
func TestSanitizeDeterministicProperty(t *testing.T) {
	p := signedPkg(t, "det", map[string]string{
		"post-install": "adduser -S det\ntouch /var/run/det.pid\nmkdir -p /var/lib/det\n",
	})
	s := sanitizer(t, buildPlan(t, p))
	raw := encode(t, p)
	first, err := s.Sanitize(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := s.Sanitize(raw)
		if err != nil {
			t.Fatal(err)
		}
		if string(again.Raw) != string(first.Raw) {
			t.Fatalf("run %d produced different bytes", i)
		}
	}
}

// Property: stripAccountCommands removes every account command and only
// account commands, for arbitrary interleavings.
func TestStripAccountCommandsProperty(t *testing.T) {
	account := []string{"adduser -S u", "addgroup -S g", "passwd -d u", "deluser u", "delgroup g"}
	neutral := []string{"mkdir -p /a", "echo hi", "touch /b", "grep x /etc/passwd"}
	f := func(picks []uint8) bool {
		var src strings.Builder
		wantNeutral := 0
		for _, p := range picks {
			all := append(append([]string(nil), account...), neutral...)
			cmd := all[int(p)%len(all)]
			if int(p)%len(all) >= len(account) {
				wantNeutral++
			}
			src.WriteString(cmd + "\n")
		}
		parsed, err := script.Parse(src.String())
		if err != nil {
			return false
		}
		out := stripAccountCommands(parsed.Nodes, false, nil)
		// No account command survives; all neutral commands survive.
		count := 0
		for _, n := range out {
			c, ok := n.(*script.Command)
			if !ok {
				return false
			}
			switch c.Name {
			case "adduser", "addgroup", "passwd", "deluser", "delgroup":
				return false
			}
			count++
		}
		return count == wantNeutral
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the preamble renders and reparses for arbitrary account
// name sets (quoting of gecos fields etc.).
func TestPreambleRendersProperty(t *testing.T) {
	f := func(names []string) bool {
		users := make(map[string]script.User)
		groups := make(map[string]script.Group)
		for i, n := range names {
			name := fmt.Sprintf("u%x%d", n, i)
			users[name] = script.User{Name: name, Gecos: "svc " + name, Home: "/var/lib/" + name, Shell: "/sbin/nologin"}
			groups[name] = script.Group{Name: name}
		}
		plan := &accountPlan{}
		for name, g := range groups {
			g.GID = 300
			plan.groups = append(plan.groups, g)
			_ = name
		}
		for name, u := range users {
			u.UID = 300
			plan.users = append(plan.users, u)
			_ = name
		}
		preamble := renderPreamble(plan)
		_, err := script.Parse(preamble)
		return err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// streamed sanitization --------------------------------------------------

// referenceSanitize is the oracle for Sanitize's output: the package is
// decoded whole, copied, its scripts rewritten and every file signed,
// then re-signed with apk.Sign and re-encoded with apk.Encode.
func referenceSanitize(s *Sanitizer, raw []byte) (*Result, error) {
	control, err := apk.RawControlSegment(raw)
	if err != nil {
		return nil, err
	}
	p, err := apk.Decode(raw)
	if err != nil {
		return nil, err
	}
	trusted := false
	for _, sig := range p.Signatures {
		if _, err := s.TrustRing.VerifyAny(control, sig); err == nil {
			trusted = true
		}
	}
	if !trusted {
		return nil, fmt.Errorf("%w: %s-%s", apk.ErrUntrusted, p.Name, p.Version)
	}
	cp := *p
	if err := s.rewriteScripts(&cp); err != nil {
		return nil, err
	}
	res := &Result{OriginalSize: int64(len(raw))}
	cp.Files = make([]apk.File, len(p.Files))
	for i, f := range p.Files {
		sig, err := s.SignKey.Sign(f.Content)
		if err != nil {
			return nil, err
		}
		xattrs := map[string][]byte{apk.XattrIMA: sig}
		for k, v := range f.Xattrs {
			if k != apk.XattrIMA {
				xattrs[k] = v
			}
		}
		cp.Files[i] = apk.File{Path: f.Path, Mode: f.Mode, Content: f.Content, Xattrs: xattrs}
		res.FileCount++
		res.UncompressedSize += int64(len(f.Content))
	}
	cp.Signatures = nil
	if err := apk.Sign(&cp, s.SignKey); err != nil {
		return nil, err
	}
	if res.Raw, err = apk.Encode(&cp); err != nil {
		return nil, err
	}
	res.SanitizedSize = int64(len(res.Raw))
	res.WorkingSet = res.OriginalSize + 2*res.UncompressedSize + res.SanitizedSize
	return res, nil
}

// catalogPackages builds, signs and encodes one catalog package per
// workload category plus the largest and the most-files spec of a
// 0.02-scale population. The EPC tail (130-260 MB packages) is left
// out to keep a run under a few seconds; the largest spec is then a
// few MB.
func catalogPackages(t testing.TB, seed int64) (pkgs []*apk.Package, raws map[string][]byte) {
	t.Helper()
	gen := workload.New(workload.Config{Seed: seed, Scale: 0.02, EPCTailProb: 1e-12})
	specs := gen.Specs()
	chosen := map[string]workload.Spec{}
	largest, most := specs[0], specs[0]
	for _, spec := range specs {
		if _, ok := chosen[spec.Category.String()]; !ok {
			chosen[spec.Category.String()] = spec
		}
		if spec.TotalSize > largest.TotalSize {
			largest = spec
		}
		if spec.FileCount > most.FileCount {
			most = spec
		}
	}
	chosen["largest"], chosen["most-files"] = largest, most
	raws = make(map[string][]byte, len(chosen))
	for row, spec := range chosen {
		p, err := gen.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := apk.Sign(p, upstream(t)); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
		raws[row] = encode(t, p)
	}
	return pkgs, raws
}

// TestSanitizeMatchesReference: the streamed pass gives the oracle's
// bytes, counts and working set on catalog packages, and the oracle's
// error where it rejects one.
func TestSanitizeMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		pkgs, raws := catalogPackages(t, seed)
		s := sanitizer(t, buildPlan(t, pkgs...))
		for row, raw := range raws {
			t.Run(fmt.Sprintf("seed%d/%s", seed, row), func(t *testing.T) {
				t.Parallel()
				want, wantErr := referenceSanitize(s, raw)
				got, err := s.Sanitize(raw)
				if wantErr != nil || err != nil {
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("err = %v, reference err = %v", err, wantErr)
					}
					return
				}
				if !bytes.Equal(got.Raw, want.Raw) {
					t.Fatalf("streamed output (%d B) differs from the reference (%d B)", len(got.Raw), len(want.Raw))
				}
				if got.FileCount != want.FileCount || got.UncompressedSize != want.UncompressedSize || got.WorkingSet != want.WorkingSet {
					t.Fatalf("files/size/working set = %d/%d/%d, reference %d/%d/%d",
						got.FileCount, got.UncompressedSize, got.WorkingSet, want.FileCount, want.UncompressedSize, want.WorkingSet)
				}
			})
		}
	}
	// Files out of path order stay in archive order: the bytes differ
	// from the reference, which Encode sorts, but the package is the
	// same set of files, signed.
	t.Run("unsorted", func(t *testing.T) {
		files := []apk.File{
			{Path: "/usr/share/u/zz", Mode: 0o644, Content: []byte("last by path")},
			{Path: "/usr/bin/u", Mode: 0o755, Content: []byte("first by path")},
			{Path: "/etc/u.conf", Mode: 0o644, Content: []byte("k=v\n")},
		}
		raw := handBuilt(t, upstream(t), dataTar(t, files...), nil)
		s := sanitizer(t, buildPlan(t))
		got, err := s.Sanitize(raw)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := referenceSanitize(s, raw); err != nil || bytes.Equal(got.Raw, want.Raw) {
			t.Fatalf("reference err = %v; the output should differ from the path-sorted reference", err)
		}
		p, _, err := apk.VerifyRaw(got.Raw, keys.NewRing(tsrKey(t).Public()))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Files) != len(files) {
			t.Fatalf("%d files, want %d", len(p.Files), len(files))
		}
		for i, f := range p.Files {
			if f.Path != files[i].Path || !bytes.Equal(f.Content, files[i].Content) || len(f.Xattrs[apk.XattrIMA]) != keys.SignatureSize {
				t.Fatalf("file %d = %s, want %s, signed", i, f.Path, files[i].Path)
			}
		}
	})
}

// dataTar tars files in the given order, as a data segment.
func dataTar(t testing.TB, files ...apk.File) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, f := range files {
		hdr := &tar.Header{Name: strings.TrimPrefix(f.Path, "/"), Mode: int64(f.Mode), Size: int64(len(f.Content)),
			ModTime: time.Unix(0, 0), Format: tar.FormatPAX}
		if err := tw.WriteHeader(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(f.Content); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// handBuilt assembles a package "hand" around the data segment data,
// signed by signer. The control segment declares the hash of declared,
// or of data when declared is nil.
func handBuilt(t testing.TB, signer *keys.Pair, data, declared []byte) []byte {
	t.Helper()
	if declared == nil {
		declared = data
	}
	member := func(tw *tar.Writer, name string, content []byte) {
		if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: int64(len(content))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(content); err != nil {
			t.Fatal(err)
		}
	}
	var control, sigs bytes.Buffer
	tw := tar.NewWriter(&control)
	member(tw, apk.ControlName, []byte(fmt.Sprintf("pkgname = hand\npkgver = 1.0-r0\ndatahash = %x\n", sha256.Sum256(declared))))
	tw.Close()
	sig, err := signer.Sign(control.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tw = tar.NewWriter(&sigs)
	member(tw, apk.SignaturePrefix+signer.Name, sig)
	tw.Close()
	var out bytes.Buffer
	for _, seg := range [][]byte{sigs.Bytes(), control.Bytes(), data} {
		zw := gzip.NewWriter(&out)
		zw.Write(seg)
		zw.Close()
	}
	return out.Bytes()
}

// TestSanitizeChecksSignatureBeforeData pins the error precedence of
// the streamed pass: the upstream signature is checked before the data
// member is inflated, so a package both untrusted and carrying a data
// segment its control segment does not describe is ErrUntrusted. The
// same data under a trusted signature is ErrContentHash.
func TestSanitizeChecksSignatureBeforeData(t *testing.T) {
	s := sanitizer(t, buildPlan(t))
	data := dataTar(t, apk.File{Path: "/x", Mode: 0o644, Content: []byte("swapped")})
	other := dataTar(t, apk.File{Path: "/x", Mode: 0o644, Content: []byte("declared")})
	if _, err := s.Sanitize(handBuilt(t, keys.Shared.MustGet("evil-signer"), data, other)); !errors.Is(err, apk.ErrUntrusted) {
		t.Fatalf("untrusted and corrupt: err = %v, want ErrUntrusted", err)
	}
	if _, err := s.Sanitize(handBuilt(t, upstream(t), data, other)); !errors.Is(err, apk.ErrContentHash) {
		t.Fatalf("trusted and corrupt: err = %v, want ErrContentHash", err)
	}
}

// TestSanitizeDistrustsMemberSize: a trusted package whose data member
// has a tar header claiming 64 MiB for a 1 KiB file is ErrFormat, and
// the claim buys no large allocation.
func TestSanitizeDistrustsMemberSize(t *testing.T) {
	const claimed, budget = 64 << 20, 1 << 20
	var hostile bytes.Buffer
	tw := tar.NewWriter(&hostile)
	if err := tw.WriteHeader(&tar.Header{Name: "usr/bin/x", Mode: 0o755, Size: claimed}); err != nil {
		t.Fatal(err)
	}
	tw.Write(bytes.Repeat([]byte{0x5A}, 1<<10))
	hostile.Write(make([]byte, 1024)) // no Close: the member stays short
	raw := handBuilt(t, upstream(t), hostile.Bytes(), nil)

	s := sanitizer(t, buildPlan(t))
	if _, err := s.Sanitize(encode(t, signedPkg(t, "warm", nil))); err != nil { // warm the codec pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.Sanitize(raw)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, apk.ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= budget {
		t.Fatalf("Sanitize allocated %d bytes for a member claiming %d", n, claimed)
	}
}

// TestSanitizeConcurrent: goroutines sharing one Sanitizer, and the
// pooled codec behind it, each get their serial output.
func TestSanitizeConcurrent(t *testing.T) {
	var pkgs []*apk.Package
	for i := 0; i < 6; i++ {
		var files []apk.File
		for j := 0; j <= i; j++ {
			files = append(files, apk.File{Path: fmt.Sprintf("/usr/lib/c%d/%d", i, j), Mode: 0o644,
				Content: bytes.Repeat([]byte{byte(i), byte(j), 0x5A}, (i+1)*(8<<10))})
		}
		pkgs = append(pkgs, signedPkg(t, fmt.Sprintf("c%d", i), map[string]string{"post-install": fmt.Sprintf("adduser -S c%d\n", i)}, files...))
	}
	s := sanitizer(t, buildPlan(t, pkgs...))
	var inputs, serial [][]byte
	for _, p := range pkgs {
		raw := encode(t, p)
		res, err := s.Sanitize(raw)
		if err != nil {
			t.Fatal(err)
		}
		inputs, serial = append(inputs, raw), append(serial, res.Raw)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range inputs {
				k := (i + g) % len(inputs)
				res, err := s.Sanitize(inputs[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(res.Raw, serial[k]) {
					t.Errorf("goroutine %d: input %d sanitized differently from serial", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzSanitize: whatever the input, Sanitize does not panic, and it
// either fails or returns a package that verifies under the TSR key.
func FuzzSanitize(f *testing.F) {
	pkgs := []*apk.Package{untrustedPkg(f), configChangePkg(f), shellActivationPkg(f),
		signedPkg(f, "svc", map[string]string{"post-install": "addgroup -S svc\nadduser -S -G svc svc\ntouch /var/run/svc.pid\n"})}
	gen := workload.New(workload.Config{Seed: 1, Scale: 0.002, EPCTailProb: 1e-12})
	for _, spec := range gen.Specs() {
		if spec.TotalSize > 16<<10 || len(pkgs) >= 12 {
			continue
		}
		p, err := gen.Build(spec)
		if err != nil {
			f.Fatal(err)
		}
		if err := apk.Sign(p, upstream(f)); err != nil {
			f.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	for _, p := range pkgs {
		f.Add(encode(f, p))
	}
	s := sanitizer(f, buildPlan(f, pkgs...))
	ring := keys.NewRing(tsrKey(f).Public())
	f.Fuzz(func(t *testing.T, raw []byte) {
		res, err := s.Sanitize(raw)
		if err != nil {
			return
		}
		if _, _, err := apk.VerifyRaw(res.Raw, ring); err != nil {
			t.Fatalf("accepted input sanitized to a package that does not verify: %v", err)
		}
	})
}

package policy

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"tsr/internal/keys"
	"tsr/internal/netsim"
)

func signerPEM(t testing.TB, name string) string {
	t.Helper()
	pair := keys.Shared.MustGet(name)
	pem, err := pair.Public().MarshalPEM()
	if err != nil {
		t.Fatal(err)
	}
	// Policies carry keys as |- block scalars, whose canonical form has
	// no trailing newline.
	return strings.TrimRight(string(pem), "\n")
}

func samplePolicy(t *testing.T) *Policy {
	t.Helper()
	return &Policy{
		Mirrors: []Mirror{
			{Hostname: "https://alpinelinux/v3.10/", Location: "Europe"},
			{Hostname: "https://yandex.ru/alpine/v3.10/", Location: "Europe", CertificateChain: "-----BEGIN CERTIFICATE-----\nAAA\n-----END CERTIFICATE-----"},
			{Hostname: "https://ustc.edu.cn/alpine/v3.10/", Location: "Asia"},
		},
		SignerKeys: []string{signerPEM(t, "alpine-4a40"), signerPEM(t, "alpine-524b")},
		InitConfigFiles: []ConfigFile{
			{Path: "/etc/passwd", Content: "root:x:0:0:root:/root:/bin/ash\ndaemon:x:2:2:daemon:/sbin:/sbin/nologin"},
			{Path: "/etc/group", Content: "root:x:0:root"},
		},
	}
}

func TestMarshalParseRoundtrip(t *testing.T) {
	p := samplePolicy(t)
	raw := p.Marshal()
	got, err := Parse(raw)
	if err != nil {
		t.Fatalf("parse error: %v\npolicy:\n%s", err, raw)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("roundtrip mismatch:\n%+v\nvs\n%+v", got, p)
	}
}

// listing1 is the exact shape of the paper's Listing 1 (with the
// simulation's location field standing in for real-world DNS
// geography), trusting the signer key signerPEM.
func listing1(signerPEM string) string {
	return `mirrors:
  - hostname: https://alpinelinux/v3.10/
    certificate_chain: |-
      -----BEGIN CERTIFICATE-----
      MIIB
      -----END CERTIFICATE-----
  - hostname: https://yandex.ru/alpine/v3.10/
    location: Europe
signers_keys:
  - |-
` + indent(signerPEM, "    ") + `
init_config_files:
  - path: /etc/passwd
    content: |-
      root:x:0:0:root:/root:/bin/ash
      daemon:x:2:2:daemon:/sbin:/sbin/nologin
`
}

func TestParseListing1Shape(t *testing.T) {
	p, err := Parse([]byte(listing1(signerPEM(t, "alpine-4a40"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Mirrors) != 2 {
		t.Fatalf("mirrors = %+v", p.Mirrors)
	}
	if !strings.Contains(p.Mirrors[0].CertificateChain, "MIIB") {
		t.Fatalf("cert chain = %q", p.Mirrors[0].CertificateChain)
	}
	if len(p.SignerKeys) != 1 || !strings.Contains(p.SignerKeys[0], "BEGIN PUBLIC KEY") {
		t.Fatalf("signer keys = %v", p.SignerKeys)
	}
	if p.InitConfigFiles[0].Path != "/etc/passwd" {
		t.Fatalf("config = %+v", p.InitConfigFiles)
	}
	if !strings.Contains(p.InitConfigFiles[0].Content, "daemon:x:2:2") {
		t.Fatalf("content = %q", p.InitConfigFiles[0].Content)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}

// parseErrorCases are malformed policies Parse must refuse with
// ErrFormat.
var parseErrorCases = []string{
	"bogus_section:\n",
	"  indented:\n",
	"mirrors:\n  hostname: x\n", // not a list item
	"mirrors:\n  - hostname: x\n    certificate_chain: inline\n", // not a block
	"signers_keys:\n  - inline\n",                                // not a block scalar
	"init_config_files:\n  - content: |-\n",                      // missing path
	"mirrors:\n  - weird: x\n",                                   // unknown key
}

func TestParseErrors(t *testing.T) {
	for _, src := range parseErrorCases {
		if _, err := Parse([]byte(src)); !errors.Is(err, ErrFormat) {
			t.Errorf("%q: err = %v", src, err)
		}
	}
}

func TestValidate(t *testing.T) {
	p := samplePolicy(t)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	noMirrors := *p
	noMirrors.Mirrors = nil
	if err := noMirrors.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("no mirrors: err = %v", err)
	}

	dup := *p
	dup.Mirrors = []Mirror{{Hostname: "a"}, {Hostname: "a"}}
	if err := dup.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("duplicate mirrors: err = %v", err)
	}

	noKeys := *p
	noKeys.SignerKeys = nil
	if err := noKeys.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("no keys: err = %v", err)
	}

	badKey := *p
	badKey.SignerKeys = []string{"garbage"}
	if err := badKey.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad key: err = %v", err)
	}

	badLoc := *p
	badLoc.Mirrors = []Mirror{{Hostname: "a", Location: "Atlantis"}}
	if err := badLoc.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad location: err = %v", err)
	}

	relPath := *p
	relPath.InitConfigFiles = []ConfigFile{{Path: "etc/passwd"}}
	if err := relPath.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("relative config path: err = %v", err)
	}
}

func TestSignerRing(t *testing.T) {
	p := samplePolicy(t)
	ring, err := p.SignerRing()
	if err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 2 {
		t.Fatalf("ring size = %d", ring.Len())
	}
	// A signature by a policy signer must verify through the ring.
	pair := keys.Shared.MustGet("alpine-4a40")
	sig, err := pair.Sign([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ring.VerifyAny([]byte("data"), sig); err != nil {
		t.Fatal(err)
	}
}

func TestMirrorContinent(t *testing.T) {
	tests := []struct {
		loc  string
		want netsim.Continent
	}{
		{"", netsim.Europe},
		{"Europe", netsim.Europe},
		{"europe", netsim.Europe},
		{"North America", netsim.NorthAmerica},
		{"northamerica", netsim.NorthAmerica},
		{"Asia", netsim.Asia},
	}
	for _, tt := range tests {
		got, err := Mirror{Location: tt.loc}.Continent()
		if err != nil || got != tt.want {
			t.Errorf("Continent(%q) = %v, %v", tt.loc, got, err)
		}
	}
	if _, err := (Mirror{Location: "Mars"}).Continent(); !errors.Is(err, ErrInvalid) {
		t.Errorf("err = %v", err)
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	src := `# organizational policy

mirrors:
  - hostname: https://a/

signers_keys:
  - |-
` + indent(signerPEM(t, "alpine-4a40"), "    ") + "\n"
	p, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Mirrors) != 1 || len(p.SignerKeys) != 1 {
		t.Fatalf("policy = %+v", p)
	}
}

// Robustness: Parse never panics on arbitrary input.
func TestParseRobustnessProperty(t *testing.T) {
	f := func(src string) bool {
		_, _ = Parse([]byte(src))
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWhitelistBlacklistRoundtrip(t *testing.T) {
	p := samplePolicy(t)
	p.PackageWhitelist = []string{"busybox", "openssl"}
	p.PackageBlacklist = []string{"telnetd"}
	got, err := Parse(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("roundtrip mismatch:\n%+v\nvs\n%+v", got, p)
	}
}

func TestAllows(t *testing.T) {
	open := &Policy{}
	if !open.Allows("anything") {
		t.Fatal("open policy must allow everything")
	}
	closed := &Policy{PackageWhitelist: []string{"a", "b"}, PackageBlacklist: []string{"b"}}
	if !closed.Allows("a") {
		t.Fatal("whitelisted package denied")
	}
	if closed.Allows("b") {
		t.Fatal("blacklist must override whitelist")
	}
	if closed.Allows("c") {
		t.Fatal("unlisted package allowed despite whitelist")
	}
	blackOnly := &Policy{PackageBlacklist: []string{"x"}}
	if blackOnly.Allows("x") || !blackOnly.Allows("y") {
		t.Fatal("blacklist-only semantics wrong")
	}
}

// Package sanitize implements the paper's core contribution (§4.2,
// §5.3): package sanitization. Sanitizing a package means
//
//  1. verifying its authenticity and integrity against the policy's
//     trusted signer keys,
//  2. rewriting its installation scripts so their effect on the OS
//     configuration is deterministic — account-creating scripts are
//     replaced by a canonical provisioning preamble that creates ALL
//     users and groups any package in the repository might create, in a
//     predefined order with fixed ids,
//  3. predicting the resulting configuration files (/etc/passwd,
//     /etc/shadow, /etc/group) and issuing digital signatures over the
//     predicted contents, installed by the rewritten script via
//     setfattr,
//  4. issuing a digital signature for every file in the data segment
//     (stored in PAX headers, extracted to security.ima xattrs),
//  5. re-encoding and re-signing the package with the TSR key.
//
// Packages whose scripts change arbitrary configuration files or
// activate login shells cannot be sanitized and are rejected
// (ErrUnsupported), matching the paper's 0.24% rejection rate.
package sanitize

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"tsr/internal/apk"
	"tsr/internal/keys"
	"tsr/internal/osimage"
	"tsr/internal/policy"
	"tsr/internal/script"
)

// Error sentinels.
var (
	ErrUnsupported = errors.New("sanitize: package cannot be sanitized")
	ErrBadScript   = errors.New("sanitize: package script does not parse")
)

// accountPlan is the repository-wide account assignment: every user and
// group any package may create, in canonical (sorted) order with fixed
// ids.
type accountPlan struct {
	groups []script.Group
	users  []script.User
}

// Plan is the result of the repository scan: the canonical provisioning
// preamble, the predicted configuration file contents, and their
// signatures.
type Plan struct {
	// Preamble is the canonical account-provisioning script prefix.
	Preamble string
	// PredictedConfig maps config paths to their predicted contents
	// after the preamble ran on a policy-initialized OS.
	PredictedConfig map[string][]byte
	// ConfigSigs maps config paths to TSR signatures over the predicted
	// contents.
	ConfigSigs map[string][]byte
	// EmptyFileSig signs the empty content, reused for every file
	// created by a sanitized `touch`.
	EmptyFileSig []byte
	// Findings collects security findings discovered during the scan
	// (e.g. accounts created with an empty password).
	Findings []Finding
}

// Hash returns a digest of everything in the plan that determines the
// sanitization output for a given input package: the provisioning
// preamble, the predicted-config signatures, and the empty-file
// signature. Two plans with equal hashes sanitize any package to
// byte-identical results (sanitization and encoding are deterministic),
// which makes the hash usable as half of a content-addressed
// sanitization cache key.
func (p *Plan) Hash() [32]byte {
	h := sha256.New()
	// Length-framed fields: without framing, two structurally different
	// plans could concatenate to the same byte stream and collide.
	writeField := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	writeField([]byte(p.Preamble))
	for _, path := range sortedKeys(p.ConfigSigs) {
		writeField([]byte(path))
		writeField(p.ConfigSigs[path])
	}
	writeField(p.EmptyFileSig)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Finding is a security observation made during sanitization — the
// paper's §4.2 reports exactly this class: "two packages that not only
// create a user but also set an empty password and shell".
type Finding struct {
	Package string
	Detail  string
}

// PackageSource yields the scripts of every package in the repository;
// the planner scans them for account creation. It abstracts over
// iterating decoded packages vs. workload specs.
type PackageSource interface {
	// NextScripts returns the next package's name and script sources,
	// or ok=false when exhausted.
	NextScripts() (name string, scripts map[string]string, ok bool)
}

// SliceSource adapts a slice of decoded packages to PackageSource.
type SliceSource struct {
	Packages []*apk.Package
	pos      int
}

// NextScripts implements PackageSource.
func (s *SliceSource) NextScripts() (string, map[string]string, bool) {
	if s.pos >= len(s.Packages) {
		return "", nil, false
	}
	p := s.Packages[s.pos]
	s.pos++
	return p.Name, p.Scripts, true
}

// Signer signs the plan's predicted contents: a *keys.Pair, or a
// *keys.Memo over one so that a rebuilt plan whose predictions did not
// change signs nothing again.
type Signer interface {
	Sign(data []byte) ([]byte, error)
}

// BuildPlan scans every package's scripts for account creation
// commands, assigns canonical ids, renders the provisioning preamble,
// and predicts the configuration files by executing the preamble on a
// fresh OS image seeded with the policy's init_config_files.
//
// signKey makes the predicted config signatures and the empty-file
// signature: the TSR repository signing key, or a memo over it.
func BuildPlan(src PackageSource, initFiles []policy.ConfigFile, signKey Signer) (*Plan, error) {
	users := make(map[string]script.User)
	groups := make(map[string]script.Group)
	var findings []Finding

	for {
		pkgName, scripts, ok := src.NextScripts()
		if !ok {
			break
		}
		for _, srcText := range scripts {
			parsed, err := script.Parse(srcText)
			if err != nil {
				return nil, fmt.Errorf("%w: %s: %v", ErrBadScript, pkgName, err)
			}
			collectAccounts(pkgName, parsed, users, groups, &findings)
		}
	}

	plan := &accountPlan{}
	// Canonical order: sorted by name; ids assigned sequentially from
	// a fixed base so every TSR instance with the same policy and
	// repository derives the same configuration.
	groupNames := sortedKeys(groups)
	nextGID := 200
	gidOf := make(map[string]int, len(groupNames))
	for _, name := range groupNames {
		g := groups[name]
		g.GID = nextGID
		gidOf[name] = nextGID
		nextGID++
		plan.groups = append(plan.groups, g)
	}
	userNames := sortedKeys(users)
	nextUID := 200
	for _, name := range userNames {
		u := users[name]
		u.UID = nextUID
		if gid, ok := gidOf[name]; ok {
			u.GID = gid
		} else {
			u.GID = u.UID
		}
		// Sanitization strips empty passwords: accounts are always
		// locked (the paper reported the empty-password packages to the
		// Alpine community rather than preserving the bug).
		u.NoPassword = false
		// Interactive shells on service accounts are downgraded.
		if u.Shell == "" {
			u.Shell = "/sbin/nologin"
		}
		nextUID++
		plan.users = append(plan.users, u)
	}

	preamble := renderPreamble(plan)

	// Predict the configuration by running the preamble on a fresh
	// policy-initialized image — the exact rendering code the real OS
	// uses, so prediction cannot drift from reality.
	predicted, err := predictConfig(preamble, initFiles)
	if err != nil {
		return nil, err
	}
	sigs := make(map[string][]byte, len(predicted))
	for path, content := range predicted {
		sig, err := signKey.Sign(content)
		if err != nil {
			return nil, err
		}
		sigs[path] = sig
	}
	emptySig, err := signKey.Sign(nil)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Preamble:        preamble,
		PredictedConfig: predicted,
		ConfigSigs:      sigs,
		EmptyFileSig:    emptySig,
		Findings:        findings,
	}, nil
}

// collectAccounts walks a script and records adduser/addgroup effects,
// flagging empty-password and interactive-shell findings.
func collectAccounts(pkgName string, s *script.Script, users map[string]script.User, groups map[string]script.Group, findings *[]Finding) {
	for _, c := range s.Commands() {
		switch c.Name {
		case "adduser":
			u, err := script.ParseAddUser(c.Args)
			if err != nil {
				continue // classified elsewhere; rejection happens there
			}
			if interactiveShell(u.Shell) {
				*findings = append(*findings, Finding{
					Package: pkgName,
					Detail:  fmt.Sprintf("user %q created with interactive shell %s", u.Name, u.Shell),
				})
			}
			if _, ok := users[u.Name]; !ok {
				users[u.Name] = u
			}
		case "addgroup":
			g, err := script.ParseAddGroup(c.Args)
			if err != nil {
				continue
			}
			if _, ok := groups[g.Name]; !ok {
				groups[g.Name] = g
			}
		case "passwd":
			name, hash, err := script.ParsePasswd(c.Args)
			if err == nil && hash == "" {
				*findings = append(*findings, Finding{
					Package: pkgName,
					Detail:  fmt.Sprintf("user %q would get an EMPTY password (CVE-2019-5021 class)", name),
				})
			}
		}
	}
}

func interactiveShell(shell string) bool {
	switch shell {
	case "", "/sbin/nologin", "/bin/false", "/usr/sbin/nologin":
		return false
	}
	return true
}

// renderPreamble renders the canonical provisioning script: all groups,
// then all users, sorted, with explicit ids.
func renderPreamble(plan *accountPlan) string {
	var b strings.Builder
	b.WriteString("# TSR canonical account provisioning (deterministic order)\n")
	for _, g := range plan.groups {
		fmt.Fprintf(&b, "addgroup -S -g %d %s\n", g.GID, g.Name)
	}
	for _, u := range plan.users {
		fmt.Fprintf(&b, "adduser -S -u %d -g %s -h %s -s %s %s\n",
			u.UID, quoteIfNeeded(u.Gecos), u.Home, u.Shell, u.Name)
	}
	return b.String()
}

func quoteIfNeeded(s string) string {
	if s == "" || strings.ContainsAny(s, " \t") {
		return fmt.Sprintf("%q", s)
	}
	return s
}

// predictConfig executes the preamble on a fresh OS image and captures
// the resulting configuration files.
func predictConfig(preamble string, initFiles []policy.ConfigFile) (map[string][]byte, error) {
	ak, err := keys.Shared.Get("sanitize-predictor-ak")
	if err != nil {
		return nil, err
	}
	img, err := osimage.New(ak, initFiles)
	if err != nil {
		return nil, fmt.Errorf("sanitize: predictor image: %w", err)
	}
	parsed, err := script.Parse(preamble)
	if err != nil {
		return nil, fmt.Errorf("%w: preamble: %v", ErrBadScript, err)
	}
	if err := script.Exec(parsed, img); err != nil {
		return nil, fmt.Errorf("sanitize: predicting config: %w", err)
	}
	out := make(map[string][]byte)
	for _, path := range []string{osimage.PasswdPath, osimage.ShadowPath, osimage.GroupPath} {
		content, err := img.FS.ReadFile(path)
		if err != nil {
			return nil, err
		}
		out[path] = content
	}
	return out, nil
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Package policy implements TSR security policies (§4.5, Listing 1).
// A policy defines, per client organization: the repository mirrors TSR
// may read (with their locations, so the simulation can model latency),
// the package signer keys the organization trusts, and the initial OS
// configuration files (/etc/passwd, /etc/shadow, /etc/group) that seed
// the sanitizer's configuration prediction.
//
// The wire format is the YAML subset of Listing 1 (maps, lists of maps,
// block scalars with "|-"), parsed by a purpose-built parser so the
// module stays stdlib-only.
package policy

import (
	"errors"
	"fmt"
	"strings"

	"tsr/internal/keys"
	"tsr/internal/netsim"
)

// Error sentinels.
var (
	ErrFormat  = errors.New("policy: malformed policy")
	ErrInvalid = errors.New("policy: invalid policy")
)

// Mirror is one mirror declaration.
type Mirror struct {
	// Hostname is the mirror URL.
	Hostname string
	// Location is the mirror's continent ("Europe", "North America",
	// "Asia"), used by the network simulation; defaults to Europe.
	Location string
	// CertificateChain optionally pins the mirror's TLS chain (carried
	// verbatim; the simulation does not evaluate X.509).
	CertificateChain string
}

// Continent maps the textual location to the netsim continent.
func (m Mirror) Continent() (netsim.Continent, error) {
	switch strings.ToLower(strings.TrimSpace(m.Location)) {
	case "", "europe":
		return netsim.Europe, nil
	case "north america", "northamerica":
		return netsim.NorthAmerica, nil
	case "asia":
		return netsim.Asia, nil
	default:
		return 0, fmt.Errorf("%w: unknown location %q", ErrInvalid, m.Location)
	}
}

// ConfigFile is an initial OS configuration file.
type ConfigFile struct {
	Path    string
	Content string
}

// Policy is a parsed TSR security policy.
type Policy struct {
	// Mirrors lists the mirrors TSR reads; the quorum rule tolerates
	// f faulty mirrors out of 2f+1.
	Mirrors []Mirror
	// SignerKeys holds PEM-encoded public keys of trusted package
	// signers.
	SignerKeys []string
	// InitConfigFiles seeds configuration prediction.
	InitConfigFiles []ConfigFile
	// PackageWhitelist, when non-empty, restricts the repository to the
	// listed package names — the §4.5 "private/closed variant" of the
	// policy. PackageBlacklist excludes names (applied after the
	// whitelist).
	PackageWhitelist []string
	PackageBlacklist []string
}

// Allows reports whether the policy permits serving the named package.
func (p *Policy) Allows(name string) bool {
	if len(p.PackageWhitelist) > 0 {
		found := false
		for _, w := range p.PackageWhitelist {
			if w == name {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for _, b := range p.PackageBlacklist {
		if b == name {
			return false
		}
	}
	return true
}

// Validate checks structural invariants.
func (p *Policy) Validate() error {
	if len(p.Mirrors) == 0 {
		return fmt.Errorf("%w: no mirrors", ErrInvalid)
	}
	seen := make(map[string]bool, len(p.Mirrors))
	for _, m := range p.Mirrors {
		if m.Hostname == "" {
			return fmt.Errorf("%w: mirror without hostname", ErrInvalid)
		}
		if seen[m.Hostname] {
			return fmt.Errorf("%w: duplicate mirror %q", ErrInvalid, m.Hostname)
		}
		seen[m.Hostname] = true
		if _, err := m.Continent(); err != nil {
			return err
		}
	}
	if len(p.SignerKeys) == 0 {
		return fmt.Errorf("%w: no trusted signer keys", ErrInvalid)
	}
	if _, err := p.SignerRing(); err != nil {
		return err
	}
	for _, f := range p.InitConfigFiles {
		if !strings.HasPrefix(f.Path, "/") {
			return fmt.Errorf("%w: config path %q not absolute", ErrInvalid, f.Path)
		}
	}
	return nil
}

// SignerRing parses the trusted signer keys into a verification ring.
// Keys are named by fingerprint ("signer-<fp>").
func (p *Policy) SignerRing() (*keys.Ring, error) {
	ring := keys.NewRing()
	for i, pemText := range p.SignerKeys {
		k, err := keys.ParsePEM(fmt.Sprintf("policy-signer-%d", i), []byte(pemText))
		if err != nil {
			return nil, fmt.Errorf("%w: signer key %d: %v", ErrInvalid, i, err)
		}
		ring.Add(k)
	}
	return ring, nil
}

// Marshal renders the policy in the Listing-1 wire format.
func (p *Policy) Marshal() []byte {
	var b strings.Builder
	b.WriteString("mirrors:\n")
	for _, m := range p.Mirrors {
		fmt.Fprintf(&b, "  - hostname: %s\n", m.Hostname)
		if m.Location != "" {
			fmt.Fprintf(&b, "    location: %s\n", m.Location)
		}
		if m.CertificateChain != "" {
			b.WriteString("    certificate_chain: |-\n")
			writeBlock(&b, m.CertificateChain, "      ")
		}
	}
	b.WriteString("signers_keys:\n")
	for _, k := range p.SignerKeys {
		b.WriteString("  - |-\n")
		writeBlock(&b, k, "    ")
	}
	if len(p.InitConfigFiles) > 0 {
		b.WriteString("init_config_files:\n")
		for _, f := range p.InitConfigFiles {
			fmt.Fprintf(&b, "  - path: %s\n", f.Path)
			b.WriteString("    content: |-\n")
			writeBlock(&b, f.Content, "      ")
		}
	}
	writeNameList := func(section string, names []string) {
		if len(names) == 0 {
			return
		}
		b.WriteString(section + ":\n")
		for _, n := range names {
			fmt.Fprintf(&b, "  - %s\n", n)
		}
	}
	writeNameList("package_whitelist", p.PackageWhitelist)
	writeNameList("package_blacklist", p.PackageBlacklist)
	return []byte(b.String())
}

func writeBlock(b *strings.Builder, text, indent string) {
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		b.WriteString(indent)
		b.WriteString(line)
		b.WriteByte('\n')
	}
}

// Parse reads a policy in the Listing-1 format.
func Parse(raw []byte) (*Policy, error) {
	p := &Policy{}
	lines := strings.Split(string(raw), "\n")
	i := 0
	for i < len(lines) {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			i++
			continue
		}
		if indentOf(line) != 0 {
			return nil, fmt.Errorf("%w: line %d: unexpected indentation", ErrFormat, i+1)
		}
		switch trimmed {
		case "mirrors:":
			var err error
			i, err = parseMirrors(lines, i+1, p)
			if err != nil {
				return nil, err
			}
		case "signers_keys:":
			var err error
			i, err = parseSignerKeys(lines, i+1, p)
			if err != nil {
				return nil, err
			}
		case "init_config_files:":
			var err error
			i, err = parseConfigFiles(lines, i+1, p)
			if err != nil {
				return nil, err
			}
		case "package_whitelist:":
			var err error
			i, err = parseNameList(lines, i+1, &p.PackageWhitelist)
			if err != nil {
				return nil, err
			}
		case "package_blacklist:":
			var err error
			i, err = parseNameList(lines, i+1, &p.PackageBlacklist)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: line %d: unknown section %q", ErrFormat, i+1, trimmed)
		}
	}
	return p, nil
}

func indentOf(line string) int {
	n := 0
	for n < len(line) && line[n] == ' ' {
		n++
	}
	return n
}

// parseMirrors consumes "  - key: value" items until dedent.
func parseMirrors(lines []string, i int, p *Policy) (int, error) {
	for i < len(lines) {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			i++
			continue
		}
		if indentOf(line) == 0 {
			return i, nil
		}
		if !strings.HasPrefix(trimmed, "- ") {
			return 0, fmt.Errorf("%w: line %d: expected mirror list item", ErrFormat, i+1)
		}
		var m Mirror
		var err error
		i, err = parseMirrorItem(lines, i, &m)
		if err != nil {
			return 0, err
		}
		p.Mirrors = append(p.Mirrors, m)
	}
	return i, nil
}

func parseMirrorItem(lines []string, i int, m *Mirror) (int, error) {
	first := true
	for i < len(lines) {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			i++
			continue
		}
		ind := indentOf(line)
		if ind == 0 {
			return i, nil
		}
		if !first && strings.HasPrefix(trimmed, "- ") {
			return i, nil // next item
		}
		body := trimmed
		if first {
			body = strings.TrimPrefix(trimmed, "- ")
			first = false
		}
		key, value, ok := strings.Cut(body, ":")
		if !ok {
			return 0, fmt.Errorf("%w: line %d: expected key: value", ErrFormat, i+1)
		}
		value = strings.TrimSpace(value)
		switch key {
		case "hostname":
			m.Hostname = value
			i++
		case "location":
			m.Location = value
			i++
		case "certificate_chain":
			if value != "|-" {
				return 0, fmt.Errorf("%w: line %d: certificate_chain must be a |- block", ErrFormat, i+1)
			}
			var block string
			var err error
			block, i, err = parseBlockScalar(lines, i+1, ind+2)
			if err != nil {
				return 0, err
			}
			m.CertificateChain = block
		default:
			return 0, fmt.Errorf("%w: line %d: unknown mirror key %q", ErrFormat, i+1, key)
		}
	}
	return i, nil
}

// parseSignerKeys consumes "  - |-" block scalar items.
func parseSignerKeys(lines []string, i int, p *Policy) (int, error) {
	for i < len(lines) {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			i++
			continue
		}
		ind := indentOf(line)
		if ind == 0 {
			return i, nil
		}
		if trimmed != "- |-" && !strings.HasPrefix(trimmed, "- |- #") {
			return 0, fmt.Errorf("%w: line %d: expected '- |-' signer key block", ErrFormat, i+1)
		}
		block, next, err := parseBlockScalar(lines, i+1, ind+2)
		if err != nil {
			return 0, err
		}
		p.SignerKeys = append(p.SignerKeys, block)
		i = next
	}
	return i, nil
}

func parseConfigFiles(lines []string, i int, p *Policy) (int, error) {
	for i < len(lines) {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			i++
			continue
		}
		ind := indentOf(line)
		if ind == 0 {
			return i, nil
		}
		if !strings.HasPrefix(trimmed, "- path:") {
			return 0, fmt.Errorf("%w: line %d: expected '- path:' item", ErrFormat, i+1)
		}
		var f ConfigFile
		f.Path = strings.TrimSpace(strings.TrimPrefix(trimmed, "- path:"))
		i++
		// Expect "content: |-" at deeper indent.
		for i < len(lines) && strings.TrimSpace(lines[i]) == "" {
			i++
		}
		if i >= len(lines) || strings.TrimSpace(lines[i]) != "content: |-" {
			return 0, fmt.Errorf("%w: line %d: expected 'content: |-'", ErrFormat, i+1)
		}
		contentIndent := indentOf(lines[i])
		var err error
		var block string
		block, i, err = parseBlockScalar(lines, i+1, contentIndent+2)
		if err != nil {
			return 0, err
		}
		f.Content = block
		p.InitConfigFiles = append(p.InitConfigFiles, f)
	}
	return i, nil
}

// parseNameList consumes "  - name" items until dedent.
func parseNameList(lines []string, i int, out *[]string) (int, error) {
	for i < len(lines) {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			i++
			continue
		}
		if indentOf(line) == 0 {
			return i, nil
		}
		name, ok := strings.CutPrefix(trimmed, "- ")
		if !ok || name == "" {
			return 0, fmt.Errorf("%w: line %d: expected '- <package>'", ErrFormat, i+1)
		}
		*out = append(*out, strings.TrimSpace(name))
		i++
	}
	return i, nil
}

// parseBlockScalar reads lines indented at least minIndent, strips
// minIndent spaces, and joins them with newlines (|- chomping: no
// trailing newline).
func parseBlockScalar(lines []string, i, minIndent int) (string, int, error) {
	var out []string
	for i < len(lines) {
		line := lines[i]
		if strings.TrimSpace(line) == "" {
			// blank line inside the block only if more block follows
			if i+1 < len(lines) && indentOf(lines[i+1]) >= minIndent && strings.TrimSpace(lines[i+1]) != "" {
				out = append(out, "")
				i++
				continue
			}
			break
		}
		if indentOf(line) < minIndent {
			break
		}
		out = append(out, line[minIndent:])
		i++
	}
	if len(out) == 0 {
		return "", 0, fmt.Errorf("%w: line %d: empty block scalar", ErrFormat, i+1)
	}
	return strings.Join(out, "\n"), i, nil
}

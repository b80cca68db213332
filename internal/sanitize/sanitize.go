package sanitize

import (
	"fmt"
	"sync"
	"time"

	"tsr/internal/apk"
	"tsr/internal/enclave"
	"tsr/internal/keys"
	"tsr/internal/script"
)

// Phases is the per-operation timing breakdown of one sanitization,
// matching Table 4's rows: integrity check, archive processing
// (decompress + recompress), script modification, and signature
// generation.
type Phases struct {
	CheckIntegrity time.Duration
	Archive        time.Duration
	ModifyScripts  time.Duration
	GenerateSigs   time.Duration
}

// Total returns the native (outside-SGX) sanitization time.
func (p Phases) Total() time.Duration {
	return p.CheckIntegrity + p.Archive + p.ModifyScripts + p.GenerateSigs
}

// Result describes one sanitized package.
type Result struct {
	// Raw is the sanitized, re-signed package in its wire form.
	Raw []byte
	// OriginalSize and SanitizedSize are the wire sizes before/after —
	// the Figure 9 size overhead.
	OriginalSize  int64
	SanitizedSize int64
	// Phases is the native timing breakdown (Table 4).
	Phases Phases
	// SGXOverhead is the modeled extra time for in-enclave execution
	// (Figure 12); Total sanitization time inside SGX is
	// Phases.Total() + SGXOverhead.
	SGXOverhead time.Duration
	// WorkingSet is the enclave working set of the paper's model
	// (Figures 8 and 12): the wire form in and out plus two whole
	// decoded copies of the package. It is not what Sanitize holds,
	// which streams the data segment one file at a time.
	WorkingSet int64
	// ExceedsEPC marks packages whose working set spills out of the
	// EPC (the triangle markers of Figure 8).
	ExceedsEPC bool
	// FileCount and UncompressedSize echo package properties for the
	// Figure 8/9 axes.
	FileCount        int
	UncompressedSize int64
}

// InSGXTime returns the modeled in-enclave sanitization time.
func (r *Result) InSGXTime() time.Duration {
	return r.Phases.Total() + r.SGXOverhead
}

// SizeOverheadPercent returns the Figure 9 metric.
func (r *Result) SizeOverheadPercent() float64 {
	if r.OriginalSize == 0 {
		return 0
	}
	return 100 * float64(r.SanitizedSize-r.OriginalSize) / float64(r.OriginalSize)
}

// Sanitizer sanitizes packages under one policy-derived plan. A
// Sanitizer is reentrant: Sanitize only reads the configuration fields,
// so one instance may be shared by any number of worker goroutines
// (the refresh pipeline sanitizes packages concurrently).
type Sanitizer struct {
	// Plan is the repository-wide account/config plan.
	Plan *Plan
	// TrustRing verifies the upstream package signatures (the policy's
	// signers_keys).
	TrustRing *keys.Ring
	// SignKey is the per-repository TSR signing key (generated inside
	// the enclave at policy deployment).
	SignKey *keys.Pair
	// Memo, when set, is a memo over SignKey that the per-file IMA
	// signatures go through, so a file whose bytes another package (or
	// an earlier version of this one) already carried is not signed
	// again. Nil signs every file, as the paper measures.
	Memo *keys.Memo
	// Runs, when set, is a run memo the output's data member is
	// compressed through, so a file whose tar entry an earlier
	// sanitization already compressed (twice: see apk.RunMemo) is not
	// deflated again. Nil deflates every run, as the paper measures.
	Runs *apk.RunMemo
	// EPC models the SGX execution cost; the zero value disables the
	// SGX overhead model (TSR outside SGX, the Figure 12 baseline).
	EPC enclave.CostModel

	// The preamble parse is shared across packages: it depends only on
	// the plan, and re-parsing it per account-creating package was the
	// dominant script-modification cost on large repositories.
	preambleOnce   sync.Once
	preambleParsed *script.Script
	preambleErr    error
}

// parsedPreamble parses the plan preamble once per Sanitizer.
func (s *Sanitizer) parsedPreamble() (*script.Script, error) {
	s.preambleOnce.Do(func() {
		s.preambleParsed, s.preambleErr = script.Parse(s.Plan.Preamble)
	})
	return s.preambleParsed, s.preambleErr
}

// Sanitize verifies, rewrites, re-signs and re-encodes one package in
// one streamed pass (apk.Rewrite): the upstream signature is checked
// over the raw control segment before any package data is inflated,
// then the scripts are rewritten, then each data-segment file is signed
// on its way from the input archive to the output one.
func (s *Sanitizer) Sanitize(raw []byte) (*Result, error) {
	j := &job{s: s, res: &Result{OriginalSize: int64(len(raw))}, start: time.Now()}
	out, err := apk.Rewrite(raw, j, s.Runs)
	if err != nil {
		return nil, err
	}
	res := j.res
	// Archive processing (decompress + recompress) is what the pass
	// spent outside the other three phases.
	res.Phases.Archive = time.Since(j.start) - res.Phases.CheckIntegrity - res.Phases.ModifyScripts - res.Phases.GenerateSigs
	res.Raw = out
	res.SanitizedSize = int64(len(out))

	// SGX model, as the paper sizes it: the wire form plus decoded and
	// re-encoded in-memory copies ("TSR extracts and manipulates the
	// package completely in the memory", §6.2). The streamed pass holds
	// far less; Figures 8 and 12 keep the paper's formula.
	res.WorkingSet = res.OriginalSize + 2*res.UncompressedSize + res.SanitizedSize
	res.ExceedsEPC = s.EPC.ExceedsEPC(res.WorkingSet)
	res.SGXOverhead = s.EPC.Overhead(res.WorkingSet, res.Phases.Total())
	return res, nil
}

// job is one Sanitize call's side of apk.Rewrite; it times the phases
// and counts the files as they stream past.
type job struct {
	s     *Sanitizer
	res   *Result
	start time.Time
}

// Control checks the upstream signature over the exact control segment
// bytes, then rewrites the scripts.
func (j *job) Control(p *apk.Package, control []byte) error {
	sigOK := false
	for _, sig := range p.Signatures {
		// Key names inside the package are hints; policy rings label
		// keys locally, so try every trusted key.
		if _, err := j.s.TrustRing.VerifyAny(control, sig); err == nil {
			sigOK = true
			break
		}
	}
	if !sigOK {
		return fmt.Errorf("%w: %s-%s", apk.ErrUntrusted, p.Name, p.Version)
	}
	j.res.Phases.CheckIntegrity = time.Since(j.start)

	start := time.Now()
	if err := j.s.rewriteScripts(p); err != nil {
		return err
	}
	j.res.Phases.ModifyScripts = time.Since(start)
	return nil
}

// File issues the file's signature, stored in a PAX header (§5.3).
func (j *job) File(f *apk.File) error {
	start := time.Now()
	var signer Signer = j.s.SignKey
	if j.s.Memo != nil {
		signer = j.s.Memo
	}
	sig, err := signer.Sign(f.Content)
	if err != nil {
		return err
	}
	if f.Xattrs == nil {
		f.Xattrs = make(map[string][]byte, 1)
	}
	f.Xattrs[apk.XattrIMA] = sig
	j.res.FileCount++
	j.res.UncompressedSize += int64(len(f.Content))
	j.res.Phases.GenerateSigs += time.Since(start)
	return nil
}

// Sign replaces the upstream package signature with TSR's.
func (j *job) Sign(control []byte) (string, []byte, error) {
	start := time.Now()
	sig, err := j.s.SignKey.Sign(control)
	j.res.Phases.GenerateSigs += time.Since(start)
	return j.s.SignKey.Name, sig, err
}

// rewriteScripts rewrites every hook per §4.2 and rejects unsupported
// packages. For account-creating hooks the user/group commands are
// removed and the canonical preamble is prepended; signature
// installation commands are appended for the predicted config files and
// for files created empty by the script.
func (s *Sanitizer) rewriteScripts(p *apk.Package) error {
	if len(p.Scripts) == 0 {
		return nil
	}
	rewritten := make(map[string]string, len(p.Scripts))
	for hook, srcText := range p.Scripts {
		parsed, err := script.Parse(srcText)
		if err != nil {
			return fmt.Errorf("%w: %s %s: %v", ErrBadScript, p.Name, hook, err)
		}
		classes := script.Classify(parsed)
		if !classes.SafeAfterTSR() {
			return fmt.Errorf("%w: %s-%s hook %s performs %v", ErrUnsupported, p.Name, p.Version, hook, classes)
		}
		out, err := s.rewriteOne(parsed, classes)
		if err != nil {
			return fmt.Errorf("sanitize: %s %s: %w", p.Name, hook, err)
		}
		rewritten[hook] = out
	}
	p.Scripts = rewritten
	return nil
}

// rewriteOne rewrites a single hook script.
func (s *Sanitizer) rewriteOne(parsed *script.Script, classes script.ClassSet) (string, error) {
	var b []script.Node
	createsAccounts := classes[script.OpUserGroup]
	touchesFiles := classes[script.OpEmptyFile]

	if createsAccounts {
		pre, err := s.parsedPreamble()
		if err != nil {
			return "", err
		}
		b = append(b, pre.Nodes...)
	}
	b = append(b, stripAccountCommands(parsed.Nodes, touchesFiles, s.Plan.EmptyFileSig)...)

	if createsAccounts {
		// Install the predicted configuration signatures.
		for _, path := range sortedKeys(s.Plan.ConfigSigs) {
			b = append(b, setfattrNode(path, s.Plan.ConfigSigs[path]))
		}
	}
	out := &script.Script{Nodes: b}
	return out.Render(), nil
}

// stripAccountCommands removes adduser/addgroup/passwd commands (their
// effect is subsumed by the preamble, and empty-password commands are
// dropped as security fixes), recursing into if branches. After each
// kept `touch PATH`, a setfattr installing the empty-content signature
// is inserted when emptySig is provided.
func stripAccountCommands(nodes []script.Node, signTouches bool, emptySig []byte) []script.Node {
	var out []script.Node
	for _, n := range nodes {
		switch v := n.(type) {
		case *script.Command:
			switch v.Name {
			case "adduser", "addgroup", "passwd", "deluser", "delgroup":
				continue
			}
			out = append(out, v)
			if signTouches && v.Name == "touch" && emptySig != nil {
				for _, arg := range v.Args {
					if len(arg) > 0 && arg[0] == '/' {
						out = append(out, setfattrNode(arg, emptySig))
					}
				}
			}
		case *script.If:
			out = append(out, &script.If{
				Cond: v.Cond,
				Then: stripAccountCommands(v.Then, signTouches, emptySig),
				Else: stripAccountCommands(v.Else, signTouches, emptySig),
			})
		default:
			out = append(out, n)
		}
	}
	return out
}

// setfattrNode builds `setfattr -n security.ima -v <hex> <path>`.
func setfattrNode(path string, sig []byte) script.Node {
	return &script.Command{
		Name: "setfattr",
		Args: []string{"-n", apk.XattrIMA, "-v", fmt.Sprintf("%x", sig), path},
	}
}

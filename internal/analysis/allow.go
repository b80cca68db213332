package analysis

import (
	"go/token"
	"strings"
)

// The //lint:allow escape hatch.
//
//	//lint:allow <analyzer>[,<analyzer>...] <reason>
//	//lint:file-allow <analyzer>[,<analyzer>...] <reason>
//
// A line-level allow suppresses the named analyzers on its own line
// and on the line immediately below it, so it works both as a
// trailing comment and as a comment above the flagged statement. A
// file-level allow suppresses the named analyzers for the whole file
// (used for files that are wall-clock by design, e.g. the latency
// experiments). The reason is mandatory: a suppression without a
// documented reason is itself a diagnostic, and so is a suppression
// naming an analyzer that does not exist (a typo would otherwise
// silently suppress nothing, forever).
const (
	allowPrefix     = "lint:allow"
	fileAllowPrefix = "lint:file-allow"
)

// allowKey identifies one suppressed (file, line, analyzer) cell;
// line 0 means the whole file.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

type allowSet map[allowKey]bool

// collectAllows scans a unit's comments for allow directives. It
// returns the suppression set and diagnostics for malformed
// directives. known is the set of valid analyzer names: the whole
// suite, whichever subset runs.
func collectAllows(u *Unit, known map[string]bool) (allowSet, []Diagnostic) {
	allows := make(allowSet)
	var bad []Diagnostic
	report := func(pos token.Pos, msg string) {
		bad = append(bad, Diagnostic{
			Analyzer: "lintallow",
			Pos:      u.Fset.Position(pos),
			Message:  msg,
		})
	}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				var directive string
				var fileWide bool
				switch {
				case strings.HasPrefix(text, fileAllowPrefix):
					directive, fileWide = fileAllowPrefix, true
				case strings.HasPrefix(text, allowPrefix):
					directive = allowPrefix
				default:
					continue
				}
				rest := strings.TrimPrefix(text, directive)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. lint:allowance — not our directive
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(c.Pos(), "malformed //"+directive+": want //"+directive+" <analyzer> <reason> — the reason is mandatory")
					continue
				}
				names := strings.Split(fields[0], ",")
				ok := true
				for _, name := range names {
					if !known[name] {
						report(c.Pos(), "//"+directive+" names unknown analyzer \""+name+"\" (typos suppress nothing; see docs/LINT.md for the list)")
						ok = false
					}
				}
				if !ok {
					continue
				}
				posn := u.Fset.Position(c.Pos())
				for _, name := range names {
					if fileWide {
						allows[allowKey{posn.Filename, 0, name}] = true
					} else {
						allows[allowKey{posn.Filename, posn.Line, name}] = true
						allows[allowKey{posn.Filename, posn.Line + 1, name}] = true
					}
				}
			}
		}
	}
	return allows, bad
}

// filter drops the diagnostics the allow set suppresses.
func (s allowSet) filter(diags []Diagnostic) []Diagnostic {
	if len(s) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if s[allowKey{d.Pos.Filename, 0, d.Analyzer}] ||
			s[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

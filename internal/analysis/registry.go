package analysis

// All returns every analyzer in the suite, in the order diagnostics
// are documented in docs/LINT.md.
func All() []*Analyzer {
	return []*Analyzer{
		Noresign,
		Statusroute,
		Snapfreeze,
		Servenolock,
		Detrand,
		Ctxhttp,
		Spanend,
		Streamserve,
		Blobview,
		Deadexport,
	}
}

// ByName returns the named analyzers, or all of them for an empty
// list. Unknown names return nil, false.
func ByName(names []string) ([]*Analyzer, bool) {
	if len(names) == 0 {
		return All(), true
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}

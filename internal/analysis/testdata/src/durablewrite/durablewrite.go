// Package durablewrite exercises the durablewrite analyzer: files are
// replaced through durable.WriteFile, never with os.Rename or
// os.WriteFile.
package durablewrite

import "os"

func renameOver(tmp, path string) error {
	return os.Rename(tmp, path) // want `os\.Rename can leave a file empty or old after a crash`
}

func writeState(path string, raw []byte) error {
	return os.WriteFile(path, raw, 0o600) // want `os\.WriteFile can leave a file empty or old after a crash`
}

// A function value is a use too.
var replace = os.Rename // want `os\.Rename can leave a file empty or old after a crash`

// Reading and removing are not writes.
func readState(path string) ([]byte, error) {
	defer os.Remove(path + ".stale")
	return os.ReadFile(path)
}

// writeReport documents an output-only write through the escape hatch.
func writeReport(path string, raw []byte) error {
	//lint:allow durablewrite a report nothing reads back after a crash
	return os.WriteFile(path, raw, 0o644)
}

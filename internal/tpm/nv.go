package tpm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"tsr/internal/durable"
	"tsr/internal/keys"
)

// Open returns a TPM whose NV counter bank lives in the file at path,
// standing in for NV memory that survives a reboot: the counters start
// from the file (all zero when it does not exist yet), and every
// IncrementCounter writes the bank back before it returns. Temporary
// files that a crash left beside the file are removed first. Keep the
// file outside any directory an adversary can roll back, or rolling
// that directory back rolls the counters back with it.
func Open(ak *keys.Pair, path string) (*TPM, error) {
	t := New(ak)
	t.nvPath, t.fsys = path, durable.OS
	durable.RemoveTemps(t.fsys, path)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return t, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &t.counters); err != nil {
		return nil, fmt.Errorf("tpm: NV bank %s: %w", path, err)
	}
	return t, nil
}

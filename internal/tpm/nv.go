package tpm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"tsr/internal/keys"
)

// Open returns a TPM whose NV counter bank lives in the file at path,
// standing in for NV memory that survives a reboot: the counters start
// from the file (all zero when it does not exist yet), and every
// IncrementCounter writes the bank back before it returns. Keep the
// file outside any directory an adversary can roll back, or rolling
// that directory back rolls the counters back with it.
func Open(ak *keys.Pair, path string) (*TPM, error) {
	t := New(ak)
	t.nvPath = path
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

// writeBank replaces the NV file with bank durably: it writes a
// temporary file beside it, syncs it, renames it over the file and
// syncs the directory, so the new bank is on disk, whole, when it
// returns nil. On an error the file holds the old bank or the new one.
func writeBank(path string, bank map[uint32]uint64) error {
	raw, err := json.Marshal(bank)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	_, err = f.Write(raw)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

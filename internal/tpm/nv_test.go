package tpm

import (
	"os"
	"path/filepath"
	"testing"

	"tsr/internal/keys"
)

func openTestTPM(t *testing.T, path string) *TPM {
	t.Helper()
	tp, err := Open(keys.Shared.MustGet("tpm-ak"), path)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestNVBankSurvivesReopen: a TPM opened on the file another one wrote
// starts from the counters that one returned.
func TestNVBankSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nv")
	first := openTestTPM(t, path)
	for _, id := range []uint32{1, 1, 2} {
		if _, err := first.IncrementCounter(id); err != nil {
			t.Fatal(err)
		}
	}
	second := openTestTPM(t, path)
	if a, b := second.ReadCounter(1), second.ReadCounter(2); a != 2 || b != 1 {
		t.Fatalf("reopened counters = %d, %d, want 2, 1", a, b)
	}
	if v, err := second.IncrementCounter(1); v != 3 || err != nil {
		t.Fatalf("increment after reopen = %d, %v, want 3", v, err)
	}
}

// TestNVBankWriteFailures: whatever step of the bank write fails, the
// increment returns an error and no value and the counter stays where
// it was. Once the fault is gone the same TPM goes on from there, and
// one reopened on the file starts where the last returned value left
// it: every value returned is above every value returned before.
func TestNVBankWriteFailures(t *testing.T) {
	for _, tc := range []struct {
		name         string
		fault, clear func(t *testing.T, path string)
	}{
		{"temporary file cannot be created",
			func(t *testing.T, path string) { mustDo(t, os.Mkdir(path+".tmp", 0o700)) },
			func(t *testing.T, path string) { mustDo(t, os.Remove(path+".tmp")) }},
		{"rename onto the bank fails",
			func(t *testing.T, path string) {
				mustDo(t, os.Rename(path, path+".saved"))
				mustDo(t, os.MkdirAll(filepath.Join(path, "occupied"), 0o700))
			},
			func(t *testing.T, path string) {
				mustDo(t, os.RemoveAll(path))
				mustDo(t, os.Rename(path+".saved", path))
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "nv")
			tp := openTestTPM(t, path)
			returned := map[uint64]bool{}
			increment := func(tp *TPM) {
				t.Helper()
				v, err := tp.IncrementCounter(5)
				if err != nil {
					t.Fatal(err)
				}
				for old := range returned {
					if v <= old {
						t.Fatalf("increment returned %d after %d", v, old)
					}
				}
				returned[v] = true
			}
			increment(tp)
			increment(tp)
			tc.fault(t, path)
			for i := 0; i < 2; i++ {
				if v, err := tp.IncrementCounter(5); err == nil {
					t.Fatalf("increment with the bank unwritable returned %d and no error", v)
				}
				if got := tp.ReadCounter(5); got != 2 {
					t.Fatalf("counter moved to %d on a failed write, want 2", got)
				}
			}
			tc.clear(t, path)
			increment(tp)
			reopened := openTestTPM(t, path)
			if got := reopened.ReadCounter(5); got != 3 {
				t.Fatalf("reopened counter = %d, want 3", got)
			}
			increment(reopened)
		})
	}
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

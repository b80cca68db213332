package tpm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tsr/internal/durable"
	"tsr/internal/durable/durabletest"
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
// increment returns an error and no value, the counter stays where it
// was and no temporary file is left beside the bank. Once the fault is
// gone the same TPM goes on from there, and one reopened on the file
// starts where the last returned value left it: every value returned
// is above every value returned before.
func TestNVBankWriteFailures(t *testing.T) {
	for _, tc := range []struct {
		name         string
		fault, clear func(t *testing.T, tp *TPM, path string)
	}{
		{"temporary file cannot be created",
			func(t *testing.T, tp *TPM, path string) {
				// The shim's first operation is the create, and it fails.
				shim, err := durabletest.New(filepath.Dir(path), 1)
				mustDo(t, err)
				tp.fsys = shim
			},
			func(t *testing.T, tp *TPM, path string) { tp.fsys = durable.OS }},
		{"rename onto the bank fails",
			func(t *testing.T, tp *TPM, path string) {
				mustDo(t, os.Rename(path, path+".saved"))
				mustDo(t, os.MkdirAll(filepath.Join(path, "occupied"), 0o700))
			},
			func(t *testing.T, tp *TPM, path string) {
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
			tc.fault(t, tp, path)
			for i := 0; i < 2; i++ {
				if v, err := tp.IncrementCounter(5); err == nil {
					t.Fatalf("increment with the bank unwritable returned %d and no error", v)
				}
				if got := tp.ReadCounter(5); got != 2 {
					t.Fatalf("counter moved to %d on a failed write, want 2", got)
				}
				if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp")); len(left) > 0 {
					t.Fatalf("failed write left %v beside the bank", left)
				}
			}
			tc.clear(t, tp, path)
			increment(tp)
			reopened := openTestTPM(t, path)
			if got := reopened.ReadCounter(5); got != 3 {
				t.Fatalf("reopened counter = %d, want 3", got)
			}
			increment(reopened)
		})
	}
}

// TestNVBankCrash walks a power loss over every operation of three bank
// writes, with the unsynced names lost and kept: the bank still parses,
// and a TPM reopened on it reads at least every value an increment
// returned before the crash.
func TestNVBankCrash(t *testing.T) {
	// run returns the number of operations the shim saw, even when a
	// check fails, so the walk is sized by the first call.
	run := func(t *testing.T, crashAt int, keepNames bool) (ops int) {
		dir := t.TempDir()
		path := filepath.Join(dir, "nv")
		tp := openTestTPM(t, path)
		shim, err := durabletest.New(dir, crashAt)
		mustDo(t, err)
		tp.fsys = shim
		returned := map[uint32]uint64{}
		for _, id := range []uint32{1, 2, 1} {
			v, err := tp.IncrementCounter(id)
			if errors.Is(err, durabletest.ErrCrashed) {
				break
			}
			mustDo(t, err)
			returned[id] = v
		}
		ops = shim.Ops()
		mustDo(t, shim.Rewind(keepNames))
		reopened, err := Open(keys.Shared.MustGet("tpm-ak"), path)
		if err != nil {
			t.Errorf("reopening the bank after the crash: %v", err)
			return ops
		}
		for id, v := range returned {
			if got := reopened.ReadCounter(id); got < v {
				t.Errorf("counter %d reads %d after the crash, but %d was returned", id, got, v)
			}
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); keepNames && len(tmps) > 0 {
			t.Errorf("the reopen left %q beside the bank", tmps)
		}
		return ops
	}
	n := run(t, 0, false)
	for k := 0; k <= n; k++ {
		for _, keepNames := range []bool{false, true} {
			t.Run(fmt.Sprintf("op%d/keepNames=%v", k, keepNames), func(t *testing.T) { run(t, k, keepNames) })
		}
	}
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

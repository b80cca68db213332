package testbed_test

import (
	"testing"

	"tsr/internal/apk"
	"tsr/internal/mirror"
	"tsr/internal/store"
	"tsr/internal/testbed"
	"tsr/internal/tsr"
)

// sequence is the index sequence r serves.
func sequence(t *testing.T, r *tsr.Repo) uint64 {
	t.Helper()
	cur, err := r.Current()
	if err != nil {
		t.Fatal(err)
	}
	return cur.Index.Sequence
}

func setMirrors(tb *testbed.Testbed, b mirror.Behavior) {
	for _, m := range tb.Mirrors {
		m.SetBehavior(b)
	}
}

// TestRestartKeepsMirrorsAndHost: a restart brings back only the
// origin process. A mirror outage set before it is still in force
// after it, so the restored tenant serves its checkpoint warm but
// cannot refresh until the mirrors recover; once they do, the next
// publish is ahead of every sequence the previous life signed, because
// the TPM is the host's.
func TestRestartKeepsMirrorsAndHost(t *testing.T) {
	st := store.NewMem()
	tb, err := testbed.New(testbed.Options{Host: tsr.Config{Store: st, AutoPersist: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"app", "lib"} {
		p := &apk.Package{Name: name, Version: "1.0-r0", Files: []apk.File{{Path: "/usr/bin/" + name, Mode: 0o755, Content: []byte(name)}}}
		if err := tb.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
	r1, err := tb.Deploy(tb.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Refresh(); err != nil {
		t.Fatal(err)
	}
	before := sequence(t, r1)

	setMirrors(tb, mirror.Offline)
	svc, err := tb.Restart(tsr.Config{Store: st, AutoPersist: true})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Service != svc {
		t.Fatal("Restart did not make the new service the testbed's Service")
	}
	restored, err := svc.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].ID != r1.ID || !restored[0].Warm || restored[0].Err != nil {
		t.Fatalf("RestoreAll = %+v, want %s back warm", restored, r1.ID)
	}
	r2, err := svc.Repo(r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := sequence(t, r2); got != before {
		t.Fatalf("restored tenant serves sequence %d, want its checkpoint's %d", got, before)
	}
	if _, err := r2.Refresh(); err == nil {
		t.Fatal("refresh after the restart succeeded while every mirror was offline: the restart replaced the mirrors")
	}

	setMirrors(tb, mirror.Honest)
	if _, err := r2.Refresh(); err != nil {
		t.Fatalf("refresh after the mirrors recovered: %v", err)
	}
	if got := sequence(t, r2); got <= before {
		t.Fatalf("sequence after the restart = %d, want > %d", got, before)
	}
}

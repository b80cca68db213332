package store

import (
	"errors"
	"fmt"
	"testing"
)

func TestJournalAppendReplayCommit(t *testing.T) {
	st := NewMem()
	j, err := OpenJournal(st, "journal/")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := j.Append([]byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := j.Append([]byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1+1 {
		t.Fatalf("sequences not consecutive: %d then %d", s1, s2)
	}
	if err := j.Commit(s1); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := j.Replay(func(e JournalEntry) error {
		got = append(got, string(e.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "two" {
		t.Fatalf("replayed %v, want [two]", got)
	}
	// Everything replayed successfully was committed.
	pending, err := j.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("%d entries still pending after replay", len(pending))
	}
}

// TestJournalSurvivesReopen is the crash shape: entries appended by one
// journal instance are pending in a fresh instance over the same store,
// in append order, and new appends continue after them.
func TestJournalSurvivesReopen(t *testing.T) {
	st := NewMem()
	j1, err := OpenJournal(st, "journal/")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := j1.Append([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// "Crash": drop j1, reopen over the same store.
	j2, err := OpenJournal(st, "journal/")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := j2.Append([]byte("op-3"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("reopened journal continued at %d, want 3", seq)
	}
	pending, err := j2.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 4 {
		t.Fatalf("%d pending, want 4", len(pending))
	}
	for i, e := range pending {
		if want := fmt.Sprintf("op-%d", i); string(e.Payload) != want {
			t.Fatalf("pending[%d] = %q, want %q (append order lost)", i, e.Payload, want)
		}
	}
}

// TestJournalReplayKeepsFailedEntry: a failing fn leaves its entry
// pending for the next replay but does not block entries behind it.
func TestJournalReplayKeepsFailedEntry(t *testing.T) {
	st := NewMem()
	j, err := OpenJournal(st, "journal/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("poison")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("fine")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var seen []string
	err = j.Replay(func(e JournalEntry) error {
		seen = append(seen, string(e.Payload))
		if string(e.Payload) == "poison" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("replay error = %v, want wrapped boom", err)
	}
	if len(seen) != 2 {
		t.Fatalf("replay visited %v, want both entries", seen)
	}
	pending, err := j.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || string(pending[0].Payload) != "poison" {
		t.Fatalf("pending = %v, want only the poisoned entry", pending)
	}
}

// TestJournalPinsPrefix: on a budgeted store, heavy churn outside the
// journal cannot evict a pending intent.
func TestJournalPinsPrefix(t *testing.T) {
	st := NewMemBudget(4 << 10)
	j, err := OpenJournal(st, "journal/")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := j.Append(make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := st.Put(fmt.Sprintf("bulk/%d", i), make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	pending, err := j.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Seq != seq {
		t.Fatalf("pending intent evicted under churn: %v", pending)
	}
}

func TestJournalRejectsBadPrefixAndStore(t *testing.T) {
	if _, err := OpenJournal(NewMem(), "nojail"); err == nil {
		t.Fatal("prefix without trailing slash accepted")
	}
}

package store

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Journal is a crash-safe intent log layered on a Store: every bulk
// operation (a batched package registration) appends one entry BEFORE
// any of its effects land, and commits (deletes) the entry only after
// the last effect — including the sealed checkpoint that makes the
// effects durable — has been written. A crash anywhere in between
// leaves the entry pending; Replay on the next boot re-runs it.
// Re-running must therefore be idempotent, which the TSR ingest path
// guarantees by keying every effect on content hashes.
//
// Entries are ordinary store blobs under one key prefix, named by a
// zero-padded sequence number so Iterate + sort recovers append order.
// The journal inherits the store's trust model: payloads are whatever
// the caller wrote (TSR seals them), and an adversary who owns the
// store can at worst delete entries — degrading a crash recovery to an
// incomplete ingest the operator retries — or re-expose a committed
// entry, which replays an operation the operator legitimately
// requested. Neither forges state: everything the replay produces is
// re-verified against signer rings exactly like the original request.
type Journal struct {
	store  Store
	prefix string

	mu   sync.Mutex
	next uint64
}

// JournalEntry is one pending operation.
type JournalEntry struct {
	Seq     uint64
	Payload []byte
}

// OpenJournal scans the store for existing entries under prefix (which
// must be non-empty and end with "/") and returns a journal whose next
// append continues after the highest pending sequence. The prefix is
// pinned so LRU pressure from package churn can never age out a
// pending intent.
func OpenJournal(st Store, prefix string) (*Journal, error) {
	if prefix == "" || !strings.HasSuffix(prefix, "/") {
		return nil, fmt.Errorf("store: journal prefix %q must end with /", prefix)
	}
	j := &Journal{store: st, prefix: prefix}
	st.Pin(prefix)
	err := st.Iterate(func(info Info) bool {
		if seq, ok := j.parseKey(info.Key); ok && seq >= j.next {
			j.next = seq + 1
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

func (j *Journal) key(seq uint64) string {
	return fmt.Sprintf("%s%016x", j.prefix, seq)
}

func (j *Journal) parseKey(key string) (uint64, bool) {
	if !strings.HasPrefix(key, j.prefix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimPrefix(key, j.prefix), 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Append durably records one intent and returns its sequence number.
// The write must complete before the caller performs any effect of the
// operation — that ordering is the whole crash-safety argument.
func (j *Journal) Append(payload []byte) (uint64, error) {
	j.mu.Lock()
	seq := j.next
	j.next++
	j.mu.Unlock()
	if err := j.store.Put(j.key(seq), payload); err != nil {
		return 0, fmt.Errorf("store: journal append: %w", err)
	}
	return seq, nil
}

// Commit marks the operation complete by deleting its entry. Deleting
// an already-absent entry is not an error (a replay may race a late
// commit after a partial crash).
func (j *Journal) Commit(seq uint64) error {
	if err := j.store.Delete(j.key(seq)); err != nil && err != ErrNotFound {
		return fmt.Errorf("store: journal commit %d: %w", seq, err)
	}
	return nil
}

// Pending returns every uncommitted entry in append order.
func (j *Journal) Pending() ([]JournalEntry, error) {
	var keys []string
	err := j.store.Iterate(func(info Info) bool {
		if _, ok := j.parseKey(info.Key); ok {
			keys = append(keys, info.Key)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	// Zero-padded hex keys: lexical order IS sequence order.
	sort.Strings(keys)
	out := make([]JournalEntry, 0, len(keys))
	for _, k := range keys {
		payload, err := j.store.Get(k)
		if err != nil {
			if err == ErrNotFound {
				continue // committed between Iterate and Get
			}
			return nil, err
		}
		seq, _ := j.parseKey(k)
		out = append(out, JournalEntry{Seq: seq, Payload: payload})
	}
	return out, nil
}

// Replay invokes fn for every pending entry in append order. An entry
// whose fn returns nil is committed; an entry whose fn errors stays
// pending (it will be offered again on the next Replay) and the error
// is returned after the remaining entries were still attempted — one
// poisoned intent must not wedge the ones behind it.
func (j *Journal) Replay(fn func(e JournalEntry) error) error {
	pending, err := j.Pending()
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range pending {
		if err := fn(e); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("store: journal replay %d: %w", e.Seq, err)
			}
			continue
		}
		if err := j.Commit(e.Seq); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Package mirror implements repository mirrors (§2.1) including the
// Byzantine behaviors of the paper's threat model (§3.1, Figure 5): an
// adversary controlling a minority of mirrors can serve outdated signed
// indexes (replay attack), pretend updates do not exist (freeze attack),
// corrupt package bytes, or take mirrors offline.
//
// A mirror serves the repository's snapshots without copying them: every
// mirror synced from one repository state shares its package bytes, and
// FetchPackage hands them out as read-only views. A Corrupt mirror flips
// its byte in a private copy, so the corruption reaches only the caller
// it was served to.
package mirror

import (
	"errors"
	"fmt"
	"sync"

	"tsr/internal/index"
	"tsr/internal/netsim"
	"tsr/internal/repo"
)

// Error sentinels.
var (
	ErrOffline = errors.New("mirror: offline")
	ErrNoIndex = errors.New("mirror: mirror has no index yet")
)

// Behavior selects how a mirror (mis)behaves.
type Behavior int

const (
	// Honest mirrors serve the latest synced snapshot faithfully.
	Honest Behavior = iota
	// Replay mirrors keep serving the snapshot from before they turned
	// malicious: an outdated-but-correctly-signed view with known
	// vulnerabilities.
	Replay
	// Freeze mirrors stop syncing: they serve their current snapshot
	// forever, hiding the existence of updates.
	Freeze
	// Corrupt mirrors serve the current index but flip bits in package
	// bodies (e.g. the compromised phpMyAdmin mirror incident).
	Corrupt
	// Offline mirrors fail every request.
	Offline
)

// String implements fmt.Stringer.
func (b Behavior) String() string {
	switch b {
	case Honest:
		return "honest"
	case Replay:
		return "replay"
	case Freeze:
		return "freeze"
	case Corrupt:
		return "corrupt"
	case Offline:
		return "offline"
	default:
		return fmt.Sprintf("Behavior(%d)", int(b))
	}
}

// Mirror is one repository mirror.
type Mirror struct {
	// Hostname identifies the mirror (matching the policy entry).
	Hostname string
	// Continent locates the mirror for the latency model.
	Continent netsim.Continent

	mu       sync.RWMutex
	behavior Behavior
	snap     *repo.Snapshot // latest synced state
	pinned   *repo.Snapshot // state served under Replay/Freeze
}

// New creates an honest mirror.
func New(hostname string, continent netsim.Continent) *Mirror {
	return &Mirror{Hostname: hostname, Continent: continent}
}

// SetBehavior switches the mirror's behavior. Switching to Replay or
// Freeze pins the currently synced snapshot as the stale view the
// adversary keeps serving.
func (m *Mirror) SetBehavior(b Behavior) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.behavior = b
	if b == Replay || b == Freeze {
		m.pinned = m.snap
	}
}

// Behavior returns the current behavior.
func (m *Mirror) Behavior() Behavior {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.behavior
}

// Sync pulls the latest snapshot from the original repository. Replay,
// Freeze and Offline mirrors record the new snapshot (so a later return
// to honesty is possible) but keep serving the pinned one.
func (m *Mirror) Sync(r *repo.Repository) {
	snap := r.Snapshot()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snap = snap
	if m.pinned == nil {
		m.pinned = snap
	}
}

// serving returns the snapshot this mirror serves given its behavior.
// Caller must hold mu.
func (m *Mirror) serving() (*repo.Snapshot, error) {
	switch m.behavior {
	case Offline:
		return nil, fmt.Errorf("%w: %s", ErrOffline, m.Hostname)
	case Replay, Freeze:
		if m.pinned == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoIndex, m.Hostname)
		}
		return m.pinned, nil
	default:
		if m.snap == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoIndex, m.Hostname)
		}
		return m.snap, nil
	}
}

// FetchIndex returns the signed metadata index the mirror serves.
func (m *Mirror) FetchIndex() (*index.Signed, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	snap, err := m.serving()
	if err != nil {
		return nil, err
	}
	if snap.Signed == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoIndex, m.Hostname)
	}
	return snap.Signed.Clone(), nil
}

// FetchPackage returns the encoded bytes of the named package, a
// read-only view shared with the repository and every mirror synced
// from the same state. Corrupt mirrors return a copy with a byte of
// the body flipped.
func (m *Mirror) FetchPackage(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	snap, err := m.serving()
	if err != nil {
		return nil, err
	}
	raw, ok := snap.Packages[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q on %s", repo.ErrNoPackage, name, m.Hostname)
	}
	if m.behavior != Corrupt || len(raw) == 0 {
		return raw, nil
	}
	out := append([]byte(nil), raw...)
	out[len(out)/2] ^= 0xFF
	return out, nil
}

// Byzantine-mirrors demonstrates §4.5: an adversary controlling a
// minority of mirrors mounts replay and freeze attacks (Figure 5), and
// TSR's quorum outvotes them, so the OS still receives the security
// update. The example then pushes past the threat model (a Byzantine
// majority) to show where the guarantee ends.
//
// Run: go run ./examples/byzantine-mirrors
package main

import (
	"fmt"
	"log"

	"tsr/internal/apk"
	"tsr/internal/mirror"
	"tsr/internal/testbed"
	"tsr/internal/tsr"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	openssl := func(version, payload string) *apk.Package {
		return &apk.Package{
			Name: "openssl", Version: version,
			Files: []apk.File{{Path: "/usr/lib/libssl.so", Mode: 0o755, Content: []byte(payload)}},
		}
	}
	// Five mirrors: the policy tolerates f = 2 Byzantine ones.
	tb, err := testbed.New(testbed.Options{Mirrors: 5})
	if err != nil {
		return err
	}
	if err := tb.Publish(openssl("1.1.1f-r0", "vulnerable to CVE-XXXX")); err != nil {
		return err
	}
	tenant, err := tb.Deploy(tb.Policy)
	if err != nil {
		return err
	}
	if _, err := tenant.Refresh(); err != nil {
		return err
	}
	fmt.Println("1. TSR serves openssl-1.1.1f-r0 (the vulnerable version) — all mirrors honest")

	// The adversary compromises two mirrors BEFORE the security update
	// propagates: one replays the old snapshot, one freezes.
	tb.Mirrors[0].SetBehavior(mirror.Replay)
	tb.Mirrors[1].SetBehavior(mirror.Freeze)
	fmt.Println("2. adversary compromises 2/5 mirrors (replay + freeze)")

	// The distribution ships the security fix; honest mirrors sync.
	if err := tb.Publish(openssl("1.1.1g-r0", "CVE fixed")); err != nil {
		return err
	}

	stats, err := tenant.Refresh()
	if err != nil {
		return err
	}
	served := version(tenant)
	fmt.Printf("3. quorum read contacted %d mirrors; TSR now serves openssl-%s\n",
		stats.MirrorsContacted, served)
	if served != "1.1.1g-r0" {
		return fmt.Errorf("expected the security fix to win the quorum")
	}

	// Beyond the threat model: a third mirror falls. The Byzantine
	// mirrors are now a majority and can pin the old (validly signed)
	// index — the freeze attack succeeds, which is exactly why the
	// paper's assumption is a minority of faulty mirrors.
	tb.Mirrors[2].SetBehavior(mirror.Replay)
	if err := tb.Publish(openssl("1.1.1h-r0", "next fix")); err != nil {
		return err
	}
	if _, err := tenant.Refresh(); err != nil {
		fmt.Printf("4. with 3/5 mirrors Byzantine the refresh fails closed: %v\n", err)
	} else {
		fmt.Printf("4. with 3/5 mirrors Byzantine TSR still serves openssl-%s — the stale-but-signed index won\n",
			version(tenant))
	}
	fmt.Println("   (the guarantee holds only for f faulty mirrors out of 2f+1, as in §3.1)")
	return nil
}

// version reports the openssl version the tenant currently serves.
func version(tenant *tsr.Repo) string {
	raw, err := tenant.FetchPackage("openssl")
	if err != nil {
		return "<error: " + err.Error() + ">"
	}
	p, err := apk.Decode(raw)
	if err != nil {
		return "<corrupt>"
	}
	return p.Version
}

// Multitenant demonstrates §5.2: multiple clients share a single TSR
// instance, each deploying their own security policy and receiving a
// logically separated repository with its own signing key. Tenant A
// trusts the distribution's signer; tenant B additionally trusts a
// vendor key, so a vendor-signed package is served to B but rejected
// for A. The sealed-state restart path (§5.5) is exercised at the end.
//
// Run: go run ./examples/multitenant
package main

import (
	"fmt"
	"log"
	"slices"
	"strings"

	"tsr/internal/apk"
	"tsr/internal/keys"
	"tsr/internal/policy"
	"tsr/internal/testbed"
	"tsr/internal/tsr"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	vendor, err := keys.Generate("vendor@acme.example")
	if err != nil {
		return err
	}

	// The original repository carries one distribution package and one
	// vendor-signed package (e.g. a commercial agent shipped through
	// the same mirror network).
	base := &apk.Package{
		Name: "busybox", Version: "1.35-r0",
		Files: []apk.File{{Path: "/bin/busybox", Mode: 0o755, Content: []byte("busybox")}},
	}
	agent := &apk.Package{
		Name: "acme-agent", Version: "2.0-r0",
		Files: []apk.File{{Path: "/usr/bin/acme-agent", Mode: 0o755, Content: []byte("agent")}},
	}
	if err := apk.Sign(agent, vendor); err != nil {
		return err
	}
	tb, err := testbed.New(testbed.Options{})
	if err != nil {
		return err
	}
	if err := tb.Publish(base, agent); err != nil {
		return err
	}

	deploy := func(pol policy.Policy) (*tsr.Repo, error) {
		r, err := tb.Deploy(pol)
		if err != nil {
			return nil, err
		}
		_, err = r.Refresh()
		return r, err
	}
	vendorPEM, err := vendor.Public().MarshalPEM()
	if err != nil {
		return err
	}
	polB := tb.Policy
	polB.SignerKeys = append(slices.Clone(polB.SignerKeys), strings.TrimRight(string(vendorPEM), "\n"))

	tenantA, err := deploy(tb.Policy)
	if err != nil {
		return err
	}
	tenantB, err := deploy(polB)
	if err != nil {
		return err
	}
	fmt.Printf("1. one TSR instance, two tenants: %s (distro key only) and %s (distro + vendor)\n", tenantA.ID, tenantB.ID)
	fmt.Printf("   tenant keys differ: %s vs %s\n",
		tenantA.PublicKey().Fingerprint(), tenantB.PublicKey().Fingerprint())

	serves := func(r *tsr.Repo, name string) bool {
		_, err := r.FetchPackage(name)
		return err == nil
	}
	fmt.Printf("2. tenant A serves busybox=%v acme-agent=%v (vendor package rejected: untrusted signer)\n",
		serves(tenantA, "busybox"), serves(tenantA, "acme-agent"))
	fmt.Printf("   tenant B serves busybox=%v acme-agent=%v\n",
		serves(tenantB, "busybox"), serves(tenantB, "acme-agent"))

	// A package sanitized for tenant A does not verify under tenant B's
	// key: the repositories are cryptographically separated.
	rawA, err := tenantA.FetchPackage("busybox")
	if err != nil {
		return err
	}
	if _, _, err := apk.VerifyRaw(rawA, keys.NewRing(tenantB.PublicKey())); err == nil {
		return fmt.Errorf("tenant B key verified tenant A's package")
	}
	fmt.Println("3. tenant A's packages do not verify under tenant B's key (logical separation)")

	// Restart survival: seal, "restart", restore, serve again.
	sealed, err := tenantA.SealState()
	if err != nil {
		return err
	}
	if err := tenantA.RestoreState(sealed); err != nil {
		return err
	}
	if !serves(tenantA, "busybox") {
		return fmt.Errorf("tenant A broken after restore")
	}
	fmt.Println("4. sealed state (SGX sealing + TPM monotonic counter) survives a TSR restart")
	return nil
}

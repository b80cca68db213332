// Quickstart walks the complete Figure 6 flow end to end:
//
//  1. an OS distribution publishes packages to its repository; mirrors
//     sync it;
//  2. an organization deploys a security policy to TSR (verifying the
//     enclave via remote attestation) and receives the repository's
//     public signing key;
//  3. TSR quorum-reads the metadata index, sanitizes the packages, and
//     serves them;
//  4. an integrity-enforced OS installs a package through its package
//     manager pointed at TSR;
//  5. the integrity monitoring system attests the OS — and accepts the
//     update (no false positive).
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"tsr/internal/apk"
	"tsr/internal/attest"
	"tsr/internal/keys"
	"tsr/internal/osimage"
	"tsr/internal/pkgmgr"
	"tsr/internal/testbed"
	"tsr/internal/tsr"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- 1. The distribution publishes packages; mirrors sync. -------
	ntpd := &apk.Package{
		Name: "ntpd", Version: "4.2.8-r0",
		Scripts: map[string]string{
			"post-install": "addgroup -S ntp\nadduser -S -G ntp -s /sbin/nologin ntp\nmkdir -p /var/lib/ntp\nchown ntp /var/lib/ntp\n",
		},
		Files: []apk.File{
			{Path: "/usr/sbin/ntpd", Mode: 0o755, Content: []byte("ntpd binary v4.2.8")},
			{Path: "/etc/ntp.conf.sample", Mode: 0o644, Content: []byte("server pool.ntp.org\n")},
		},
	}
	tb, err := testbed.New(testbed.Options{})
	if err != nil {
		return err
	}
	if err := tb.Publish(ntpd); err != nil {
		return err
	}
	fmt.Printf("1. published ntpd-4.2.8-r0 to the original repository; %d mirrors synced\n", len(tb.Mirrors))

	// --- 2. Deploy the organization's policy to TSR. -----------------
	pol := tb.Policy
	repoID, pubPEM, report, err := tb.Service.DeployPolicy(pol.Marshal())
	if err != nil {
		return err
	}
	// The OS owner verifies the attestation report before trusting the
	// returned key (Figure 7, steps 1-5).
	if err := report.Verify(tb.Host.Platform.QuotingKey(), tsr.Measurement()); err != nil {
		return fmt.Errorf("enclave attestation failed: %w", err)
	}
	tsrPub, err := keys.ParsePEM("tsr-"+repoID, pubPEM)
	if err != nil {
		return err
	}
	fmt.Printf("2. policy deployed: repository %s, TSR key fingerprint %s (enclave verified)\n",
		repoID, tsrPub.Fingerprint())

	// --- 3. TSR refreshes: quorum read + sanitization. ----------------
	tenant, err := tb.Service.Repo(repoID)
	if err != nil {
		return err
	}
	stats, err := tenant.Refresh()
	if err != nil {
		return err
	}
	fmt.Printf("3. refresh: quorum of %d mirrors in %v; %d sanitized, %d rejected\n",
		stats.MirrorsContacted, stats.QuorumLatency.Round(1e6), stats.Sanitized, stats.Rejected)

	// --- 4. The integrity-enforced OS installs through TSR. -----------
	img, err := osimage.New(keys.Shared.MustGet("quickstart-os-ak"), pol.InitConfigFiles)
	if err != nil {
		return err
	}
	// The monitoring system whitelists the golden image and is told to
	// trust the TSR key.
	verifier := attest.NewVerifier(img.TPM.AttestationKey(), keys.NewRing(tsrPub))
	if err := img.IMA.MeasureTree("/etc"); err != nil {
		return err
	}
	verifier.WhitelistImage(img)

	mgr := pkgmgr.New(img, tenant, keys.NewRing(tsrPub), keys.NewRing(tsrPub))
	if err := mgr.Refresh(); err != nil {
		return err
	}
	if _, err := mgr.Install("ntpd"); err != nil {
		return err
	}
	passwd, err := img.FS.ReadFile(osimage.PasswdPath)
	if err != nil {
		return err
	}
	fmt.Printf("4. installed ntpd through TSR; /etc/passwd now has %d accounts\n",
		strings.Count(string(passwd), "\n"))

	// --- 5. Remote attestation accepts the updated OS. ----------------
	result, err := verifier.Attest(img)
	if err != nil {
		return err
	}
	if !result.OK {
		return fmt.Errorf("unexpected violations: %+v", result.Violations())
	}
	fmt.Printf("5. attestation OK: %d measurements, 0 violations — the update did not break integrity\n",
		len(result.Findings))
	return nil
}

// Attestation demonstrates the paper's Figure 1 problem and TSR's fix:
//
//   - installing an update straight from a mirror changes measurements
//     the verifier does not know — a FALSE POSITIVE: the monitoring
//     system flags a healthy machine;
//   - an actual compromise is flagged too (true positive) — the
//     verifier cannot tell the two apart;
//   - the same update served through TSR carries signatures for every
//     changed file and for the predicted configuration, so attestation
//     stays green while the compromise is still detected.
//
// Run: go run ./examples/attestation
package main

import (
	"fmt"
	"log"

	"tsr/internal/apk"
	"tsr/internal/attest"
	"tsr/internal/keys"
	"tsr/internal/osimage"
	"tsr/internal/pkgmgr"
	"tsr/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// newOS boots a fresh integrity-enforced OS from the organization's
// golden configuration and a verifier that has whitelisted its image.
func newOS(tb *testbed.Testbed) (*osimage.Image, *attest.Verifier, error) {
	img, err := osimage.New(keys.Shared.MustGet("attest-os-ak"), tb.Policy.InitConfigFiles)
	if err != nil {
		return nil, nil, err
	}
	v := attest.NewVerifier(img.TPM.AttestationKey(), keys.NewRing(tb.Distro.Public()))
	if err := img.IMA.MeasureTree("/etc"); err != nil {
		return nil, nil, err
	}
	v.WhitelistImage(img)
	return img, v, nil
}

func run() error {
	update := &apk.Package{
		Name: "zlib", Version: "1.2.12-r0",
		Scripts: map[string]string{"post-install": "adduser -S -s /sbin/nologin zsvc\n"},
		Files:   []apk.File{{Path: "/usr/lib/libz.so", Mode: 0o755, Content: []byte("libz 1.2.12 security fix")}},
	}
	tb, err := testbed.New(testbed.Options{})
	if err != nil {
		return err
	}
	if err := tb.Publish(update); err != nil {
		return err
	}
	distro := keys.NewRing(tb.Distro.Public())

	// --- Scenario A: plain mirror update -> false positive. ----------
	imgA, verifierA, err := newOS(tb)
	if err != nil {
		return err
	}
	mgrA := pkgmgr.New(imgA, tb.Mirrors[0], distro, distro)
	if err := mgrA.Refresh(); err != nil {
		return err
	}
	if _, err := mgrA.Install("zlib"); err != nil {
		return err
	}
	resA, err := verifierA.Attest(imgA)
	if err != nil {
		return err
	}
	fmt.Printf("A. legitimate update from a plain mirror: attestation OK=%v, %d violations (FALSE POSITIVE)\n",
		resA.OK, len(resA.Violations()))
	for _, v := range resA.Violations() {
		fmt.Printf("   - %s: %s\n", v.Path, v.Reason)
	}

	// --- Scenario B: actual compromise -> true positive. -------------
	imgB, verifierB, err := newOS(tb)
	if err != nil {
		return err
	}
	if err := imgB.FS.WriteFile("/usr/lib/libz.so", []byte("backdoored libz"), 0o755); err != nil {
		return err
	}
	if _, err := imgB.IMA.MeasureFile("/usr/lib/libz.so"); err != nil {
		return err
	}
	resB, err := verifierB.Attest(imgB)
	if err != nil {
		return err
	}
	fmt.Printf("B. adversary-tampered library:               attestation OK=%v, %d violations (TRUE POSITIVE)\n",
		resB.OK, len(resB.Violations()))
	fmt.Println("   -> the verifier cannot distinguish A from B: that is the paper's problem statement")

	// --- Scenario C: the same update through TSR. ---------------------
	tenant, err := tb.Deploy(tb.Policy)
	if err != nil {
		return err
	}
	if _, err := tenant.Refresh(); err != nil {
		return err
	}
	tsrPub := tenant.PublicKey()

	imgC, verifierC, err := newOS(tb)
	if err != nil {
		return err
	}
	// §4.5: "adjusting integrity monitoring systems configuration to
	// trust TSR signing key".
	verifierC.TrustKey(tsrPub)
	mgrC := pkgmgr.New(imgC, tenant, keys.NewRing(tsrPub), keys.NewRing(tsrPub))
	if err := mgrC.Refresh(); err != nil {
		return err
	}
	if _, err := mgrC.Install("zlib"); err != nil {
		return err
	}
	resC, err := verifierC.Attest(imgC)
	if err != nil {
		return err
	}
	fmt.Printf("C. the same update through TSR:              attestation OK=%v, %d violations (no false positive)\n",
		resC.OK, len(resC.Violations()))

	// And a compromise of the TSR-updated machine is still caught.
	if err := imgC.FS.WriteFile("/usr/lib/libz.so", []byte("backdoored after update"), 0o755); err != nil {
		return err
	}
	if _, err := imgC.IMA.MeasureFile("/usr/lib/libz.so"); err != nil {
		return err
	}
	resD, err := verifierC.Attest(imgC)
	if err != nil {
		return err
	}
	fmt.Printf("D. compromise after the TSR update:          attestation OK=%v (still a TRUE POSITIVE)\n", resD.OK)
	return nil
}

// Command mkrepo materializes the synthetic Alpine-like repository to a
// directory on disk: one .apk file per package plus the signed APKINDEX,
// for inspection or for feeding external tooling.
//
// Usage:
//
//	mkrepo -out /tmp/repo [-scale 0.01] [-seed 1] [-repo main|community|all]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/repo"
	"tsr/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mkrepo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mkrepo", flag.ContinueOnError)
	out := fs.String("out", "", "output directory (required)")
	scale := fs.Float64("scale", 0.01, "population scale")
	seed := fs.Int64("seed", 1, "workload seed")
	which := fs.String("repo", "all", "main, community, or all")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	signer, err := keys.Generate("mkrepo-distro")
	if err != nil {
		return err
	}
	r := repo.New("alpine", signer)
	gen := workload.New(workload.Config{Seed: *seed, Scale: *scale})

	var written int
	var total int64
	for _, spec := range gen.Specs() {
		if *which != "all" && spec.Repo != *which {
			continue
		}
		p, err := gen.Build(spec)
		if err != nil {
			return err
		}
		if err := apk.Sign(p, signer); err != nil {
			return err
		}
		raw, err := apk.Encode(p)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s-%s.apk", p.Name, p.Version)
		if err := os.WriteFile(filepath.Join(*out, name), raw, 0o644); err != nil {
			return err
		}
		if err := r.PublishRaw(p.Name, p.Version, p.Depends, raw); err != nil {
			return err
		}
		written++
		total += int64(len(raw))
	}
	signed := r.SignedIndex()
	if signed == nil {
		return fmt.Errorf("no packages matched -repo %q", *which)
	}
	if err := os.WriteFile(filepath.Join(*out, "APKINDEX"), signed.Raw, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*out, "APKINDEX.sig"), signed.Sig, 0o644); err != nil {
		return err
	}
	pem, err := signer.Public().MarshalPEM()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*out, "signing-key.pub.pem"), pem, 0o644); err != nil {
		return err
	}
	ix, err := index.Decode(signed.Raw)
	if err != nil {
		return err
	}
	fmt.Printf("mkrepo: wrote %d packages (%.1f MB) and APKINDEX (seq %d) to %s\n",
		written, float64(total)/1e6, ix.Sequence, *out)
	return nil
}

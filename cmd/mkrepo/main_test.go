package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesRepository(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-scale", "0.003", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var apks, index, sig, key int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".apk"):
			apks++
		case e.Name() == "APKINDEX":
			index++
		case e.Name() == "APKINDEX.sig":
			sig++
		case e.Name() == "signing-key.pub.pem":
			key++
		}
	}
	if apks == 0 || index != 1 || sig != 1 || key != 1 {
		t.Fatalf("dir contents: %d apks, %d index, %d sig, %d key", apks, index, sig, key)
	}
	// The index is non-empty text.
	raw, err := os.ReadFile(filepath.Join(dir, "APKINDEX"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "origin = alpine") {
		t.Fatalf("index = %q", raw[:60])
	}
}

func TestRunSingleRepo(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-scale", "0.003", "-repo", "main"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "community-") {
			t.Fatalf("community package %s written despite -repo main", e.Name())
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -out: want error")
	}
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-scale", "0.003", "-repo", "nonexistent"}); err == nil {
		t.Error("no matching packages: want error")
	}
}

// TestRunBadFormat pins that mkrepo writes apk only: there is no
// -format flag to select another package format.
func TestRunBadFormat(t *testing.T) {
	for _, format := range []string{"deb", "rpm"} {
		if err := run([]string{"-out", t.TempDir(), "-format", format}); err == nil {
			t.Fatalf("-format %s: want error, mkrepo is apk-only", format)
		}
	}
}

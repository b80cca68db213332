package tsr

import (
	"context"
	"fmt"
	"testing"

	"tsr/internal/apk"
)

// manyFilePkg is a package of n files; file i's content names the
// version only when i is in changed, so two versions differ in exactly
// those files.
func manyFilePkg(name, version string, n int, changed ...int) *apk.Package {
	p := pkgWithScript(name, version, "adduser -S "+name+"\ntouch /var/run/"+name+".pid\n")
	p.Files = nil
	for i := range n {
		content := fmt.Sprintf("%s file %d", name, i)
		for _, c := range changed {
			if c == i {
				content += " " + version
			}
		}
		p.Files = append(p.Files, apk.File{Path: fmt.Sprintf("/usr/lib/%s/%d", name, i), Mode: 0o644, Content: []byte(content)})
	}
	return p
}

// TestBumpSignsOnlyWhatChanged: a version bump that changes one of a
// package's 32 files costs the refresh three private-key operations -
// that file, the package's control segment and the index. The rebuilt
// plan's config and empty-file signatures, and the 31 unchanged files,
// come from the repository's signature memo.
func TestBumpSignsOnlyWhatChanged(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, manyFilePkg("probe", "1.0-r0", 32), pkgWithScript("other", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	w.publish(t, manyFilePkg("probe", "1.1-r0", 32, 7))
	before := r.signKey.PrivateOps()
	stats, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 1 {
		t.Fatalf("stats = %+v (want only probe re-sanitized)", stats)
	}
	if ops := r.signKey.PrivateOps() - before; ops != 3 {
		t.Fatalf("bump refresh made %d private-key operations, want 3 (file, control segment, index)", ops)
	}
}

// TestCacheNoneReadsSignEveryFile pins the paper's Figure 10 rows:
// serve-time re-sanitization never uses the memo, so every read of a
// package under CacheNone pays one signature per file plus one for the
// control segment, however often the same bytes were signed before.
func TestCacheNoneReadsSignEveryFile(t *testing.T) {
	w := newWorld(t, 3)
	pkg := manyFilePkg("probe", "1.0-r0", 32)
	w.publish(t, pkg)
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	r.SetCacheMode(CacheNone)
	for read := range 2 {
		before := r.signKey.PrivateOps()
		_, res, err := r.FetchPackageTracedCtx(context.Background(), "probe")
		if err != nil {
			t.Fatal(err)
		}
		if res.From != ServedMirror {
			t.Fatalf("read %d: served from %v", read, res.From)
		}
		if ops, want := r.signKey.PrivateOps()-before, uint64(len(pkg.Files)+1); ops != want {
			t.Fatalf("read %d made %d private-key operations, want FileCount+1 = %d", read, ops, want)
		}
	}
}

package experiments

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"tsr/internal/apk"
	"tsr/internal/edge"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/tsr"
)

// The wire-sync experiment measures the wire-efficiency work end to
// end over real HTTP: negotiated gzip on the signed index (the
// canonical text stays what the signature and ETag cover), and
// chunk-aware differential package sync (a one-file version bump
// moves only the changed chunks plus the manifest, not the package).
// The acceptance floors mirror the PR's: gzip index <= 0.5x the
// identity bytes with byte-identical signature headers, and >= 5x
// byte reduction on the version-bump sync versus a full refetch.

// wireProbePkg builds a chunking probe package: nFiles of
// incompressible (seeded-random) content, with only the last-sorted
// file's content tied to the version — so a version bump changes a
// suffix of the deterministic apk stream and chunking can reuse the
// shared prefix. The wire-sync experiment and the fleet soak both
// publish these.
func wireProbePkg(name, version string, nFiles, fileSize int) *apk.Package {
	p := &apk.Package{Name: name, Version: version}
	for i := 0; i < nFiles; i++ {
		seed := int64(i + 1)
		path := fmt.Sprintf("/usr/share/%s/%03d.bin", name, i)
		if i == nFiles-1 {
			path = "/usr/share/" + name + "/zz-last.bin"
			for _, c := range version {
				seed = seed*131 + int64(c)
			}
		}
		content := make([]byte, fileSize)
		rand.New(rand.NewSource(seed)).Read(content)
		p.Files = append(p.Files, apk.File{Path: path, Mode: 0o644, Content: content})
	}
	return p
}

// WireSyncResult is the measured outcome; it is also the
// BENCH_wire_sync.json document.
type WireSyncResult struct {
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`

	// Index compression.
	IndexIdentityBytes    int64   `json:"index_identity_bytes"`
	IndexGzipBytes        int64   `json:"index_gzip_bytes"`
	IndexGzipRatio        float64 `json:"index_gzip_ratio"`
	IndexHeadersIdentical bool    `json:"index_headers_identical"`

	// Differential package sync (edge replica over tsr.Client over
	// HTTP; wire bytes counted at the client).
	PackageSizeBytes int64   `json:"package_size_bytes"`
	ColdWireBytes    int64   `json:"cold_wire_bytes"`
	BumpDiffBytes    int64   `json:"bump_diff_bytes"`
	FullRefetchBytes int64   `json:"full_refetch_bytes"`
	DiffReductionX   float64 `json:"diff_reduction_x"`
	DiffBytesReused  int64   `json:"diff_bytes_reused"`
	DiffBytesFetched int64   `json:"diff_bytes_fetched"`
	EdgeDiffPulls    int64   `json:"edge_diff_pulls"`
}

// WriteBench writes the BENCH_wire_sync.json document and returns its
// path.
func (r *WireSyncResult) WriteBench(dir string) (string, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_wire_sync.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// WireSyncRun performs the measurement and returns the raw result.
func WireSyncRun(cfg Config) (*WireSyncResult, error) {
	cfg = cfg.withDefaults()
	w, err := NewWorld(cfg, nil, true)
	if err != nil {
		return nil, err
	}
	res := &WireSyncResult{Scale: cfg.Scale, Seed: cfg.Seed}

	publish := func(version string) error {
		p := wireProbePkg("wire-sync-probe", version, 32, 32<<10)
		if err := apk.Sign(p, w.Distro); err != nil {
			return err
		}
		if err := w.Repo.Publish(p); err != nil {
			return err
		}
		for _, m := range w.Mirrors {
			m.Sync(w.Repo)
		}
		_, err := w.Tenant.Refresh()
		return err
	}
	if err := publish("1.0-r0"); err != nil {
		return nil, err
	}

	srv := httptest.NewServer(tsr.Handler(w.Service))
	defer srv.Close()

	// --- index compression -------------------------------------------
	// DisableCompression so the raw wire form (not the transport's
	// transparently decoded one) is what gets measured.
	rawClient := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{DisableCompression: true},
	}
	fetchIndex := func(encoding string) ([]byte, http.Header, error) {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet,
			srv.URL+"/repos/"+w.Tenant.ID+"/index", nil)
		if err != nil {
			return nil, nil, err
		}
		if encoding != "" {
			req.Header.Set("Accept-Encoding", encoding)
		}
		resp, err := rawClient.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, nil, fmt.Errorf("wire-sync: index fetch (%q): HTTP %d", encoding, resp.StatusCode)
		}
		return body, resp.Header, nil
	}
	identity, idHdr, err := fetchIndex("")
	if err != nil {
		return nil, err
	}
	zipped, gzHdr, err := fetchIndex("gzip")
	if err != nil {
		return nil, err
	}
	if gzHdr.Get("Content-Encoding") != "gzip" {
		return nil, fmt.Errorf("wire-sync: index not served gzip-encoded")
	}
	zr, err := gzip.NewReader(bytes.NewReader(zipped))
	if err != nil {
		return nil, err
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(unzipped, identity) {
		return nil, fmt.Errorf("wire-sync: gzip index does not decompress to the canonical signed text")
	}
	res.IndexIdentityBytes = int64(len(identity))
	res.IndexGzipBytes = int64(len(zipped))
	res.IndexGzipRatio = float64(len(zipped)) / float64(len(identity))
	res.IndexHeadersIdentical = idHdr.Get("ETag") == gzHdr.Get("ETag") &&
		idHdr.Get("X-Tsr-Key-Name") == gzHdr.Get("X-Tsr-Key-Name") &&
		idHdr.Get("X-Tsr-Signature") == gzHdr.Get("X-Tsr-Signature")
	if !res.IndexHeadersIdentical {
		return res, fmt.Errorf("wire-sync: gzip transfer changed the signature headers")
	}

	// --- differential package sync -----------------------------------
	client := &tsr.Client{BaseURL: srv.URL, RepoID: w.Tenant.ID}
	rep := &edge.Replica{
		RepoID:    w.Tenant.ID,
		Origin:    client,
		TrustRing: keys.NewRing(w.Tenant.PublicKey()),
	}
	if err := rep.Sync(); err != nil {
		return nil, err
	}
	if _, err := rep.FetchPackage("wire-sync-probe"); err != nil {
		return nil, err
	}
	cold := client.WireStats()
	res.ColdWireBytes = cold.PackageBytes + cold.ManifestBytes

	if err := publish("2.0-r0"); err != nil {
		return nil, err
	}
	if err := rep.Sync(); err != nil {
		return nil, err
	}
	signed, _, err := rep.FetchIndexTagged()
	if err != nil {
		return nil, err
	}
	ix, err := index.Decode(signed.Raw)
	if err != nil {
		return nil, err
	}
	entry, err := ix.Lookup("wire-sync-probe")
	if err != nil {
		return nil, err
	}
	before := client.WireStats()
	if _, err := rep.FetchPackage("wire-sync-probe"); err != nil {
		return nil, err
	}
	after := client.WireStats()

	res.PackageSizeBytes = entry.Size
	res.FullRefetchBytes = entry.Size
	res.BumpDiffBytes = (after.PackageBytes - before.PackageBytes) +
		(after.ManifestBytes - before.ManifestBytes)
	repStats := rep.Stats()
	res.DiffBytesReused = repStats.DiffBytesReused
	res.DiffBytesFetched = repStats.DiffBytesFetched
	res.EdgeDiffPulls = repStats.DiffPulls
	if res.BumpDiffBytes > 0 {
		res.DiffReductionX = float64(res.FullRefetchBytes) / float64(res.BumpDiffBytes)
	}
	return res, nil
}

// wireSyncCheck applies the acceptance floors shared by the
// experiment and BenchmarkWireSync.
func wireSyncCheck(res *WireSyncResult) error {
	if !res.IndexHeadersIdentical {
		return fmt.Errorf("wire-sync: signature headers differ between identity and gzip")
	}
	if res.IndexGzipRatio > 0.5 {
		return fmt.Errorf("wire-sync: gzip index is %.2fx the identity bytes, want <= 0.5x", res.IndexGzipRatio)
	}
	if res.EdgeDiffPulls != 1 {
		return fmt.Errorf("wire-sync: version bump performed %d differential pulls, want exactly 1", res.EdgeDiffPulls)
	}
	if res.DiffBytesReused == 0 {
		return fmt.Errorf("wire-sync: differential pull reused nothing from the cached previous version")
	}
	if res.DiffReductionX < 5 {
		return fmt.Errorf("wire-sync: version-bump sync moved %d of %d bytes (%.1fx reduction), want >= 5x",
			res.BumpDiffBytes, res.FullRefetchBytes, res.DiffReductionX)
	}
	return nil
}

// WireSync is the registered experiment: it runs the measurement,
// emits the BENCH document when Config.BenchDir is set, and fails —
// after emitting — when an acceptance floor is missed.
func WireSync(cfg Config) (*Table, error) {
	res, err := WireSyncRun(cfg)
	if err != nil {
		return nil, err
	}
	var notes []string
	if cfg.BenchDir != "" {
		path, err := res.WriteBench(cfg.BenchDir)
		if err != nil {
			return nil, err
		}
		notes = append(notes, "machine-readable results: "+path)
	}
	if err := wireSyncCheck(res); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Wire efficiency (gzip-negotiated index + chunked differential package sync)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"index identity bytes", fmt.Sprintf("%d", res.IndexIdentityBytes)},
			{"index gzip bytes", fmt.Sprintf("%d (%.2fx)", res.IndexGzipBytes, res.IndexGzipRatio)},
			{"signature headers identical", fmt.Sprintf("%v", res.IndexHeadersIdentical)},
			{"probe package size", fmt.Sprintf("%d B", res.PackageSizeBytes)},
			{"cold sync wire bytes", fmt.Sprintf("%d", res.ColdWireBytes)},
			{"version-bump diff bytes", fmt.Sprintf("%d (%.1fx reduction)", res.BumpDiffBytes, res.DiffReductionX)},
			{"diff bytes reused / fetched", fmt.Sprintf("%d / %d", res.DiffBytesReused, res.DiffBytesFetched)},
		},
		Notes: notes,
	}
	return t, nil
}

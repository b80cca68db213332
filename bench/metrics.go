package main

import (
	"math"
	"sort"

	"tsr/internal/stats"
)

// The benchmark's vocabulary: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics with the end-to-end metric
// each one should move. BENCHMARK.json at the repository root repeats
// these names; bench_test.go asserts the two agree.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"index_poll", "no package bytes move, so the index codec, gzip negotiation, Signed.Clone and ComputeDelta do nearly all the work on both handler copies"},
	{"package_fetch", "the index is only revalidated, so store reads, hash-as-you-copy, LRU eviction and edge pull-through dominate; an index-path change must not move it"},
	{"refresh_cycle", "no HTTP at all: sanitize, script, apk, keys, enclave seal, quorum and the disk store do the work (the operator's Table 3 / Fig. 8 view)"},
	{"fleet_update", "the paper's update story end to end with writes beside reads: work moved from the read path into publish shows up as a cost here"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// metricDef describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// carry Moves ("metric@workload" targets) and no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Why    string
	Moves  []string
}

// endToEnd is what a user of the system sees. The driver requires every
// end-to-end metric from every workload, so the names are roles and each
// workload fills a role with its own operation:
//
//	role             index_poll           package_fetch        refresh_cycle            fleet_update
//	op (headline)    full gzip index GET  full-body package GET incremental refresh      publish -> client holds the verified new index
//	no-change path   index 304            package 304          refresh, nothing changed edge index 304 poll beside the writes
//	unit of work     verified read        verified read        package through refresh  package upgraded on the client
//	wire             bytes to the client  bytes to the client  mirror -> origin bytes    origin -> edge bytes
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Why: "world build + cold refresh + edge sync + warm-up, before the measured window; work moved out of the window shows here"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Why: "units of work completed and verified per second of the measured window"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Why: "median client-observed latency of the workload's headline operation, to the last body byte"},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Why: "the headline operation's p90: the highest percentile every workload has ten samples beyond"},
	{Name: "nochange_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Why: "median cost of asking when nothing changed (304 revalidation, no-change refresh)"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25,
		Why: "process user+sys CPU over the measured window per unit of work; clients and servers share the process"},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.10,
		Why: "heap bytes allocated over the measured window per unit of work; a count, so the host's speed does not move it"},
	{Name: "wire_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.25,
		Why: "response-body bytes that crossed the workload's wire per unit of work; a count"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15,
		Why: "VmHWM at exit: set-up and window together"},
}

// Targets for Moves, spelled once.
const (
	tIndexP50   = "op_p50_ms@index_poll"
	tIndexOps   = "ops_per_s@index_poll"
	tIndexCPU   = "cpu_ms_per_op@index_poll"
	tIndex304   = "nochange_p50_ms@index_poll"
	tPkgP50     = "op_p50_ms@package_fetch"
	tPkgP90     = "op_p90_ms@package_fetch"
	tPkgOps     = "ops_per_s@package_fetch"
	tRefOps     = "ops_per_s@refresh_cycle"
	tRefIncr    = "op_p50_ms@refresh_cycle"
	tRefWarm    = "nochange_p50_ms@refresh_cycle"
	tFleetVis   = "op_p50_ms@fleet_update"
	tFleetOps   = "ops_per_s@fleet_update"
	tFleetWire  = "wire_kb_per_op@fleet_update"
	tFleetSetup = "setup_s@fleet_update"
)

func everyWorkload(metric string) []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = metric + "@" + w.Name
	}
	return out
}

var (
	movesIndex    = []string{tIndexP50, tIndexOps, tRefIncr, tFleetVis}
	movesIndexGet = []string{tIndexP50, tIndexOps, tIndexCPU}
	movesPkg      = []string{tPkgP50, tPkgP90, tPkgOps}
	movesDisk     = []string{tRefOps, tRefIncr}
	movesRefresh  = []string{tRefOps, tRefWarm, tRefIncr, tFleetVis}
	movesSanitize = []string{tRefOps, tFleetSetup}
	movesFleet    = []string{tFleetVis, tFleetOps, tFleetWire}
	movesMiddle   = []string{tIndex304, tIndexOps}
)

func layer(name, unit, better, why string, moves []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Why: why, Moves: moves}
}

// perLayer is printed by the traced run. A metric taken from a phase,
// counter or seam the workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// Index codec and delta, timed on the workload's own signed index.
	layer("index.entries", "count", "lower", "entries in the served index", movesIndex),
	layer("index.bytes", "B", "lower", "canonical signed index text", movesIndex),
	layer("index.encode_ms", "ms", "lower", "Index.Encode", movesIndex),
	layer("index.decode_ms", "ms", "lower", "index.Decode", movesIndex),
	layer("index.sign_ms", "ms", "lower", "index.Sign: encode + RSA", movesIndex),
	layer("index.verify_ms", "ms", "lower", "Signed.Verify: RSA + decode", movesIndex),
	layer("index.signed_clone_ms", "ms", "lower", "Signed.Clone, paid per full index read", movesIndex),
	layer("index.compute_delta_ms", "ms", "lower", "ComputeDelta with 8 changed entries, paid per delta poll", movesIndex),
	layer("index.delta_apply_ms", "ms", "lower", "Delta.Apply on the edge and the client", movesIndex),
	layer("index.delta_bytes", "B", "lower", "encoded 8-entry delta", movesIndex),

	// Index serving, both handler copies, via ServeHTTP on a recorder.
	layer("tsr.write_negotiated_gz_ms", "ms", "lower", "WriteNegotiated gzip of the signed index, paid per request", movesIndexGet),
	layer("tsr.gzip_ratio", "ratio", "lower", "gzip bytes over identity bytes of the index", movesIndexGet),
	layer("tsr.fetch_index_tagged_ms", "ms", "lower", "Repo.FetchIndexTaggedCtx", movesIndexGet),
	layer("tsr.fetch_index_delta_ms", "ms", "lower", "Repo.FetchIndexDeltaCtx from the previous generation", movesIndexGet),
	layer("tsr.handler_index_304_us", "us", "lower", "origin index If-None-Match", movesIndexGet),
	layer("tsr.handler_index_gz_ms", "ms", "lower", "origin full gzip index", movesIndexGet),
	layer("tsr.handler_delta_ms", "ms", "lower", "origin index delta", movesIndexGet),
	layer("edge.handler_index_304_us", "us", "lower", "edge index If-None-Match", movesIndexGet),
	layer("edge.handler_index_gz_ms", "ms", "lower", "edge full gzip index", movesIndexGet),
	layer("edge.handler_delta_ms", "ms", "lower", "edge index delta", movesIndexGet),

	// Package serving.
	layer("tsr.verified_reader_mb_per_s", "MB/s", "higher", "NewVerifiedReader hash-as-you-copy", movesPkg),
	layer("tsr.open_package_us", "us", "lower", "Repo.OpenPackageCtx up to the first byte", movesPkg),
	layer("tsr.fetch_package_range_us", "us", "lower", "Repo.FetchPackageRangeCtx of 64 KiB", movesPkg),
	layer("tsr.chunk_manifest_first_ms", "ms", "lower", "first chunk manifest of a package (CDC + hashes)", movesPkg),
	layer("tsr.chunk_manifest_repeat_us", "us", "lower", "memoised chunk manifest", movesPkg),
	layer("tsr.handler_package_ms", "ms", "lower", "origin full-body package", movesPkg),
	layer("edge.handler_package_ms", "ms", "lower", "edge full-body package, cache hit", movesPkg),
	layer("edge.pull_miss_ms", "ms", "lower", "edge pull-through of an uncached package", movesPkg),
	layer("edge.cache_hit_ratio", "ratio", "higher", "edge package hits over package reads in the window", movesPkg),
	layer("edge.origin_self_ms_per_op", "ms", "lower", "self time of the edge -> origin client seam per op", movesPkg),

	// Stores.
	layer("store.mem_get_us", "us", "lower", "store.Mem Get of a package", movesPkg),
	layer("store.mem_put_us", "us", "lower", "store.Mem Put of a package", movesPkg),
	layer("store.evictions", "count", "lower", "edge cache LRU evictions in the window", movesPkg),
	layer("store.bytes", "B", "lower", "edge cache bytes at the end of the window", movesPkg),
	layer("store.seam_self_ms_per_op", "ms", "lower", "self time of the store seams (origin store + edge cache) per op", movesPkg),
	layer("store.fs_get_ms", "ms", "lower", "store.FS Get of a package", movesDisk),
	layer("store.fs_put_ms", "ms", "lower", "store.FS Put of a package, Fsync off", movesDisk),
	layer("store.fs_open_mb_per_s", "MB/s", "higher", "store.FS Open streamed to the end", movesDisk),
	layer("store.journal_append_ms", "ms", "lower", "store.Journal Append + Commit on store.FS", movesDisk),
	layer("tsr.checkpoint_ms", "ms", "lower", "Repo.Checkpoint: seal + store write", movesDisk),
	layer("tsr.restore_all_ms", "ms", "lower", "Service.RestoreAll over the workload's data dir (refresh_cycle only)", movesDisk),

	// Refresh pipeline: the program's own origin.refresh stage spans.
	layer("tsr.refresh.quorum_ms", "ms", "lower", "mean refresh.quorum span", movesRefresh),
	layer("tsr.refresh.fetch_ms", "ms", "lower", "mean refresh.fetch span", movesRefresh),
	layer("tsr.refresh.plan_ms", "ms", "lower", "mean refresh.plan span", movesRefresh),
	layer("tsr.refresh.sanitize_ms", "ms", "lower", "mean refresh.sanitize span", movesRefresh),
	layer("tsr.refresh.sign_ms", "ms", "lower", "mean refresh.sign span", movesRefresh),
	layer("tsr.refresh.publish_ms", "ms", "lower", "mean refresh.publish span", movesRefresh),
	layer("tsr.refresh.seal_ms", "ms", "lower", "mean refresh.seal span", movesRefresh),
	layer("tsr.refresh.sanitize_cpu_s", "s", "lower", "RefreshStats.SanitizeTime summed over the run", movesRefresh),
	layer("tsr.sancache_hit_ratio", "ratio", "higher", "sancache hits over refresh targets", movesRefresh),
	layer("tsr.served_resanitized", "count", "lower", "origin package responses not served from the sanitized cache", movesPkg),

	// Sanitization and its parts.
	layer("sanitize.small_pkg_ms", "ms", "lower", "Sanitize of the smallest package", movesSanitize),
	layer("sanitize.manyfiles_pkg_ms", "ms", "lower", "Sanitize of the package with the most files (one RSA per file)", movesSanitize),
	layer("sanitize.large_pkg_mb_per_s", "MB/s", "higher", "Sanitize of the largest package", movesSanitize),
	layer("sanitize.build_plan_ms", "ms", "lower", "BuildPlan over every package's scripts", movesSanitize),
	layer("script.parse_classify_us", "us", "lower", "script.Parse + Classify of an account-creating script", movesSanitize),
	layer("apk.encode_mb_per_s", "MB/s", "higher", "apk.Encode of the largest package", movesSanitize),
	layer("apk.decode_mb_per_s", "MB/s", "higher", "apk.Decode of the largest package", []string{tRefOps, tFleetOps}),
	layer("apk.verify_ms", "ms", "lower", "apk.VerifyRaw of the largest package", movesSanitize),
	layer("keys.sign_ms", "ms", "lower", "RSA-2048 sign", movesSanitize),
	layer("keys.verify_us", "us", "lower", "RSA-2048 verify", []string{tRefOps, tFleetOps}),
	layer("enclave.seal_mb_per_s", "MB/s", "higher", "Service.Seal", movesSanitize),
	layer("enclave.unseal_mb_per_s", "MB/s", "higher", "Service.Unseal", movesSanitize),
	layer("tpm.increment_us", "us", "lower", "TPM monotonic counter bump", movesSanitize),
	layer("quorum.read_cpu_ms", "ms", "lower", "quorum.Reader.Read over the workload's mirrors on a virtual clock", movesRefresh),

	// Edge sync, differential pulls, client side.
	layer("edge.sync_noop_ms", "ms", "lower", "Replica.Sync, already current", movesFleet),
	layer("edge.sync_delta_ms", "ms", "lower", "Replica.Sync applying a delta", movesFleet),
	layer("edge.sync_full_ms", "ms", "lower", "Replica.Sync fetching the full index", movesFleet),
	layer("edge.diff_pull_ms", "ms", "lower", "edge pull of a version-bumped probe by changed chunks", movesFleet),
	layer("edge.diff_bytes_reused", "B", "higher", "bytes that pull reused from the previous version", movesFleet),
	layer("edge.diff_bytes_fetched", "B", "lower", "bytes that pull fetched", movesFleet),
	layer("store.build_manifest_mb_per_s", "MB/s", "higher", "store.BuildManifest", movesFleet),
	layer("edge.failover_index_ms", "ms", "lower", "FailoverClient.FetchIndex", movesFleet),
	layer("edge.failover_package_ms", "ms", "lower", "FailoverClient.FetchPackage from its verified cache", movesFleet),
	layer("pkgmgr.refresh_ms", "ms", "lower", "Manager.Refresh: fetch + verify the index", movesFleet),
	layer("pkgmgr.install_cpu_ms", "ms", "lower", "Manager.Install: verify, extract, IMA measure", movesFleet),

	// Middleware, bounding what ROADMAP item 5 may add per request.
	layer("obs.wrap_overhead_ns", "ns", "lower", "obs.Wrap around an empty handler, no tracer", movesMiddle),
	layer("obs.wrap_traced_overhead_ns", "ns", "lower", "obs.Wrap with a tracer keeping every trace", movesMiddle),
	layer("obs.wrap_allocs", "count", "lower", "allocations per request through obs.Wrap with the default tracer", movesMiddle),
	layer("trace.span_ns", "ns", "lower", "trace.Start + End under a tracer", movesMiddle),
	layer("flight.do_ns", "ns", "lower", "flight.Group.Do, uncontended", movesMiddle),
	layer("sched.admit_us", "us", "lower", "sched.Run admission of an empty job", movesMiddle),
	layer("ring.owners_ns", "ns", "lower", "ring.Owners; the router tier is not importable, so it is timed as a layer", movesMiddle),
	layer("http.loopback_rtt_us", "us", "lower", "GET of an empty handler over loopback, one connection", movesMiddle),
	layer("http.transport_self_ms_per_op", "ms", "lower", "client transport span minus the server handler span, per op", movesMiddle),

	// Process.
	layer("proc.mallocs_per_op", "count", "lower", "heap objects allocated over the window per op", everyWorkload("alloc_kb_per_op")),
	layer("proc.gc_pause_ms", "ms", "lower", "GC stop-the-world time over the window", everyWorkload("op_p90_ms")),
	layer("proc.cpu_user_s", "s", "lower", "user CPU over the window", everyWorkload("cpu_ms_per_op")),
	layer("proc.cpu_sys_s", "s", "lower", "system CPU over the window", everyWorkload("cpu_ms_per_op")),

	// Phases and tails that are user-visible on one workload only, so
	// they cannot be end-to-end metrics under the every-workload rule.
	layer("loadgen.op_p99_ms", "ms", "lower", "p99 of the headline operation; too few samples on the generation workloads to gate", everyWorkload("op_p90_ms")),
	layer("refresh.cold_pkg_per_s", "1/s", "higher", "packages sanitized over cold refresh wall time (Table 3)", []string{tRefOps}),
	layer("fleet.incr_refresh_ms", "ms", "lower", "origin refresh per generation", []string{tFleetVis}),
	layer("fleet.edge_sync_ms", "ms", "lower", "edge delta sync per generation", []string{tFleetVis}),
	layer("fleet.upgrade_pkg_p50_ms", "ms", "lower", "per-package Upgrade: fetch, verify, install, IMA measure (Fig. 11)", []string{tFleetOps}),

	// These validate the benchmark itself.
	layer("bench.primary_op_time_share", "ratio", "higher", "share of op time in the layer the workload is meant to load", nil),
	layer("bench.trace_overhead_pct", "%", "lower", "change in median op latency, untraced slice to traced remainder", nil),
}

// measurement is one reported value. Samples is how many observations
// the value summarises; 0 for counts and ratios.
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	v, _ := stats.Percentile(xs, 100*q) // the only error here is "no samples", which reads 0
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns what Python's statistics.quantiles(xs, n=4) does
// (the exclusive method), so spreads computed here match the driver's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

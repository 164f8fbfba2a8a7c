package main

import (
	"math"
	"sort"
)

// spec names one metric. BENCHMARK.json carries the same names and
// units (plus direction and bound); a test keeps the two in step.
type spec struct{ Name, Unit string }

// endToEnd are the metrics a user of the system would see. They are
// measured with tracing off.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"update_p50_ms", "ms"},
	{"updates_per_s", "1/s"},
	{"answer_bytes_per_query", "B"},
	{"blocks_per_query", "count"},
	{"stored_bytes_per_user_byte", "ratio"},
}

// perLayer are the metrics of single layers (layer = package name),
// reported by a traced run.
var perLayer = []spec{
	{"xpath.parse_us", "us"},
	{"client.translate_us", "us"},
	{"wire.marshal_query_us", "us"},
	{"wire.query_bytes", "B"},
	{"opess.ranges_per_query", "count"},
	{"server.exec_us", "us"},
	{"server.exec_share", "ratio"},
	{"server.answer_cache_hit_ratio", "ratio"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.range_cache_hit_ratio", "ratio"},
	{"server.twig_share", "ratio"},
	{"server.pruned_intervals_per_query", "count"},
	{"gencache.invalidations", "count"},
	{"admission.rejected", "count"},
	{"wire.encode_answer_us", "us"},
	{"wire.decode_answer_us", "us"},
	{"wire.proof_bytes_per_query", "B"},
	{"authtree.verify_us", "us"},
	{"client.decrypt_us", "us"},
	{"client.decrypt_mb_s", "MB/s"},
	{"client.post_us", "us"},
	{"remote.overhead_us", "us"},
	{"remote.stream_share", "ratio"},
	{"remote.stream_chunks_per_answer", "count"},
	{"remote.query_p99_ms", "ms"},
	{"core.overhead_us", "us"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_us", "us"},
	{"remote.update_apply_us", "us"},
	{"core.update_client_us", "us"},
	{"remote.update_p95_ms", "ms"},
	{"walog.syncs_per_update", "count"},
	{"faultfs.fsyncs_per_update", "count"},
	{"walog.append_sync_us", "us"},
	{"remote.checkpoints", "count"},
	{"setup.gen_s", "s"},
	{"setup.host_s", "s"},
	{"client.encrypt_s", "s"},
	{"setup.integrity_s", "s"},
	{"setup.upload_s", "s"},
	{"setup.blocks", "count"},
	{"setup.index_entries", "count"},
	{"setup.fsyncs", "count"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.steal_share", "ratio"},
	{"proc.quiet_share", "ratio"},
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported as such.
const minBeyond = 10

// percentile returns the q-quantile of sorted (ascending) samples by
// nearest rank, and whether at least minBeyond samples lie beyond it.
// When they do not, the value is still the nearest-rank quantile, but
// a report must mark it as unsupported by the sample.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(q*float64(n))) - 1
	k = min(max(k, 0), n-1)
	return sorted[k], n-1-k >= minBeyond
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

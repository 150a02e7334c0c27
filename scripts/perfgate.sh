#!/usr/bin/env bash
# perfgate.sh — CI perf-regression gate over a bench.sh report.
#
# Reads the JSON report bench.sh wrote and fails (exit 1) when the
# hot path regressed:
#
#   1. speedup_vs_legacy < 2.0 for any algorithm — the per-packet encrypt
#      engine must stay at least 2x faster than the pre-engine
#      construction, measured in the same run on the same machine (so the
#      check is machine-independent);
#   2. a steady-state hot-path benchmark (EncryptPacket, EncryptPackets,
#      EncryptPacketPrefetched, PacketizeInto) reports allocs_per_op > 0 —
#      the zero-copy pipeline must not regrow per-packet garbage;
#   3. ns/op more than 5% above the checked-in baseline for any benchmark
#      the baseline records — applied only when the report's cpu string
#      matches the baseline's, because absolute ns comparisons across
#      machine classes are noise, not signal.
#
# Usage: scripts/perfgate.sh [report.json] [baseline.json]
set -euo pipefail
cd "$(dirname "$0")/.."

report=${1:-BENCH_PR6.json}
baseline=${2:-scripts/baselines/seed.json}

if [ ! -f "$report" ]; then
	echo "perfgate: report $report not found (run scripts/bench.sh first)" >&2
	exit 1
fi
if [ ! -f "$baseline" ]; then
	echo "perfgate: baseline $baseline not found" >&2
	exit 1
fi

awk -v basefile="$baseline" '
function jstr(line, key,   m) {
	if (match(line, "\"" key "\": *\"[^\"]*\"")) {
		m = substr(line, RSTART, RLENGTH)
		sub("\"" key "\": *\"", "", m)
		sub("\"$", "", m)
		return m
	}
	return ""
}
function jnum(line, key,   m) {
	if (match(line, "\"" key "\": *-?[0-9.eE+]+")) {
		m = substr(line, RSTART, RLENGTH)
		sub("\"" key "\": *", "", m)
		return m
	}
	return ""
}
function fail(msg) { printf "perfgate: FAIL: %s\n", msg; failed = 1 }
BEGIN {
	base_cpu = ""
	while ((getline line < basefile) > 0) {
		c = jstr(line, "cpu"); if (c != "" && base_cpu == "") base_cpu = c
		bn = jstr(line, "name")
		if (bn != "") {
			v = jnum(line, "ns_per_op"); if (v != "") base_ns[bn] = v
		}
	}
	close(basefile)
	cpu = ""; hot = 0; checked_hot = 0
}
{
	c = jstr($0, "cpu"); if (c != "" && cpu == "" && $0 !~ /baseline_cpu/) cpu = c

	name = jstr($0, "name")
	if (name != "") {
		ns = jnum($0, "ns_per_op")
		allocs = jnum($0, "allocs_per_op")
		# Check 2: zero-alloc pins on the steady-state hot path.
		if (name ~ /^BenchmarkEncryptPacket(s|Prefetched)?\// || name ~ /^BenchmarkPacketizeInto(\/|$)/) {
			if (allocs != "" && allocs + 0 > 0)
				fail(name " allocates " allocs " times per op; the steady-state hot path must be 0")
		}
		# Check 3: >5% ns regression vs the baseline, same machine only.
		if (name in base_ns && ns != "") {
			if (cpu == base_cpu && base_cpu != "") {
				if (ns + 0 > base_ns[name] * 1.05)
					fail(sprintf("%s regressed: %.0f ns/op vs baseline %.0f (+%.1f%%, budget 5%%)",
						name, ns, base_ns[name], (ns / base_ns[name] - 1) * 100))
				else
					printf "perfgate: ok: %s %.0f ns/op within 5%% of baseline %.0f\n", name, ns, base_ns[name]
			} else if (!warned_cpu++) {
				printf "perfgate: note: cpu %s != baseline cpu %s; skipping absolute ns comparisons\n", cpu, base_cpu
			}
		}
	}

	# Check 1: the hot-path summary entries.
	alg = jstr($0, "alg")
	if (alg != "") {
		checked_hot++
		sp = jnum($0, "speedup_vs_legacy")
		if (sp == "")
			fail("hot_path entry for " alg " has no speedup_vs_legacy")
		else if (sp + 0 < 2.0)
			fail(sprintf("per-packet encrypt speedup for %s is %.2fx vs legacy; gate requires >= 2x", alg, sp + 0))
		else
			printf "perfgate: ok: %s encrypt hot path %.2fx vs legacy\n", alg, sp + 0
	}
}
END {
	if (checked_hot == 0)
		fail("report has no hot_path entries; bench.sh did not run the vcrypt benchmarks")
	if (failed)
		exit 1
	printf "perfgate: PASS\n"
}
' "$report"

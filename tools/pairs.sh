#!/usr/bin/env bash
# Interleaved parent/change pairs of the judged benchmark: the protocol
# ROADMAP's "judged numbers" paragraph demands of every performance claim.
#
#   tools/pairs.sh <workload> <pairs> <parent-checkout>
#   make pairs WORKLOAD=tpcc_mirror PAIRS=10 PARENT=/root/scratch/parent
#
# The change is the checkout this script lives in; the parent is any other
# checkout of the repository (git clone or git archive, not a worktree).
# Each side's benchmark is built once, by the build step of its own
# benchmark/run.sh, and the two binaries then alternate: pair i runs the
# parent first when i is odd and the change first when it is even, both on
# the same fresh seed, untraced, for the window run.sh defaults to. One line
# per pair, then per end-to-end metric each side's median [q1, q3], the
# change's move, how many pairs it won (ties count for neither) and whether
# the medians lie further apart than the parent's own quartiles; then the
# failed-op totals. Nothing is written outside the two .bench_build
# directories.
#
# Environment: PAIRS_SECONDS (window, default 20), PAIRS_SEED (seed of pair 1,
# default the clock's — so not one the change was written against — pair i
# uses PAIRS_SEED+i-1).
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: tools/pairs.sh <workload> <pairs> <parent-checkout>" >&2
	exit 2
fi
workload="$1" pairs="$2" parent="$(cd "$3" && pwd)"
change="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seconds="${PAIRS_SECONDS:-20}"
seed0="${PAIRS_SEED:-$(($(date +%s) % 100000))}"

# build is benchmark/run.sh's build step, run in checkout $1: same
# environment, same flags, same output path.
build() {
	local root="$1" b="$1/.bench_build"
	mkdir -p "$b/home" "$b/tmp"
	(
		cd "$root/benchmark"
		HOME="$b/home" XDG_CONFIG_HOME="$b/home/.config" \
			GOCACHE="$b/gocache" GOMODCACHE="$b/gomod" GOPATH="$b/gopath" \
			GOTMPDIR="$b/tmp" GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
			go build -buildvcs=false -o "$b/v3bench" .
	)
}

# run prints the result line (the last line of standard output) of one
# untraced run of checkout $1 on seed $2. A run that exits non-zero — a
# failed op, a failed verifier — still prints its line; it is counted below.
run() {
	local root="$1" seed="$2"
	(
		cd "$root"
		V3BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)" \
			"$root/.bench_build/v3bench" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 || true
	) | tail -n 1
}

build "$parent"
build "$change"
echo "pairs: $workload, $pairs pairs of ${seconds}s untraced runs, seeds $seed0..$((seed0 + pairs - 1))"
echo "  parent $parent ($(git -C "$parent" rev-parse --short HEAD 2>/dev/null || echo unknown))"
echo "  change $change ($(git -C "$change" rev-parse --short HEAD 2>/dev/null || echo unknown)$([ -z "$(git -C "$change" status --porcelain 2>/dev/null)" ] || echo ' + uncommitted'))"

rows="$(mktemp)"
trap 'rm -f "$rows"' EXIT
for i in $(seq 1 "$pairs"); do
	seed=$((seed0 + i - 1))
	if [ $((i % 2)) -eq 1 ]; then
		p="$(run "$parent" "$seed")"
		c="$(run "$change" "$seed")"
		order="parent first"
	else
		c="$(run "$change" "$seed")"
		p="$(run "$parent" "$seed")"
		order="change first"
	fi
	printf 'parent\t%s\nchange\t%s\n' "$p" "$c" >>"$rows"
	printf '  pair %2d seed %d (%s)\n    parent %s\n    change %s\n' "$i" "$seed" "$order" "$p" "$c"
done

# The four end-to-end metrics of BENCHMARK.json and their better direction.
awk -F'\t' '
function value(line, name,    re, s) {
	re = "\"" name "\":\\{\"value\":[-0-9.eE+]+"
	if (!match(line, re)) return "nan"
	s = substr(line, RSTART, RLENGTH)
	sub(/.*:/, "", s)
	return s + 0
}
function field(line, name,    re, s) {
	re = "\"" name "\":[a-z0-9]+"
	if (!match(line, re)) return ""
	s = substr(line, RSTART, RLENGTH)
	sub(/.*:/, "", s)
	return s
}
# quantile of v[1..n] (sorted in place), linear between order statistics
function quantile(v, n, q,    i, j, t, pos, lo) {
	for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
	pos = 1 + (n - 1) * q; lo = int(pos)
	return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
BEGIN {
	nm = split("ops_per_s read_p50_us cpu_us_per_op setup_s", metric, " ")
	better["ops_per_s"] = 1; better["read_p50_us"] = -1; better["cpu_us_per_op"] = -1; better["setup_s"] = -1
}
{
	side = $1; n[side]++
	failed[side] += field($2, "failed"); attempted[side] += field($2, "attempted")
	if (field($2, "correct") != "true") incorrect[side]++
	for (m = 1; m <= nm; m++) val[side, metric[m], n[side]] = value($2, metric[m])
}
END {
	np = n["parent"]
	printf "\n  %-14s %-32s %-32s %8s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "move", "change wins"
	for (m = 1; m <= nm; m++) {
		name = metric[m]; wins = ties = 0
		for (i = 1; i <= np; i++) {
			p[i] = val["parent", name, i]; c[i] = val["change", name, i]
			if (c[i] == p[i]) ties++
			else if ((c[i] - p[i]) * better[name] > 0) wins++
		}
		pm = quantile(p, np, 0.5); p1 = quantile(p, np, 0.25); p3 = quantile(p, np, 0.75)
		cm = quantile(c, np, 0.5); c1 = quantile(c, np, 0.25); c3 = quantile(c, np, 0.75)
		d = cm - pm; if (d < 0) d = -d
		apart = (d > p3 - p1) ? "further apart" : "NO further apart"
		printf("  %-14s %-32s %-32s %+7.1f%%  %d/%d%s; medians %s than the parent quartiles (%.4g)\n", name,
			sprintf("%.6g [%.6g, %.6g]", pm, p1, p3), sprintf("%.6g [%.6g, %.6g]", cm, c1, c3),
			(pm ? 100 * (cm - pm) / pm : 0), wins, np, (ties ? sprintf(" (%d ties)", ties) : ""), apart, p3 - p1)
	}
	printf "  failed ops: parent %d of %d attempted, change %d of %d; runs with a failed op or verifier: parent %d, change %d of %d\n",
		failed["parent"], attempted["parent"], failed["change"], attempted["change"], incorrect["parent"] + 0, incorrect["change"] + 0, np
}' "$rows"

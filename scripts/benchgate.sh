#!/usr/bin/env bash
# benchgate.sh is the kernel-benchmark regression gate: it compares the
# checked-out change against its parent commit on the same machine.
#
# It builds the gated packages' test binaries twice with `go test -c`,
# once from the working tree and once from the parent checked out in a
# temporary git worktree, then runs the gated benchmarks of the two
# sides alternately, benchmark by benchmark, for PAIRS pairs. For every
# gated benchmark it reports the median over pairs of the change/parent
# ns/op ratio and exits 1 when any median is above MAX_RATIO. Benchmarks
# the parent does not have are reported as new, and benchmarks only the
# parent has as removed; neither is gated.
#
# Usage: scripts/benchgate.sh [parent-commit [pairs-table]]
#
# parent-commit defaults to HEAD^. The per-pair table (pair, side,
# benchmark, ns/op; default bench-pairs.txt) is kept for inspection.
set -euo pipefail

# The gated benchmarks: one package and -test.bench pattern per line.
GATED='
internal/core     ^(BenchmarkCheck256|BenchmarkTrain|BenchmarkSnapshotCodec|BenchmarkCheckpoint)$
internal/deploy   ^BenchmarkGTableBuild$
internal/localize ^BenchmarkBeaconlessMLE$
internal/serve    ^(BenchmarkAdoptSnapshot|BenchmarkV2CheckBatch|BenchmarkV2CheckBatchDistinct|BenchmarkV2Check)$
'
PAIRS=10
MAX_RATIO=1.30
BENCHTIME=100ms

parent=${1:-HEAD^}
table=$(realpath "${2:-bench-pairs.txt}")
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$work/parent" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT
git -C "$root" worktree add --quiet --detach "$work/parent" "$parent"
declare -A src=([change]="$root" [parent]="$work/parent")

# Build every gated package for both sides; a package the parent cannot
# build leaves no binary, so its benchmarks count as new.
for side in change parent; do
	mkdir -p "$work/$side"
	while read -r pkg _; do
		[ -n "$pkg" ] || continue
		(cd "${src[$side]}" && go test -c -o "$work/$side/${pkg//\//_}.test" "./$pkg") ||
			echo "benchgate: $pkg does not build at the $side" >&2
	done <<<"$GATED"
done

# One untimed pass per side lists the gated benchmarks, sub-benchmarks
# included. The change's list is what gets timed; what only the parent
# lists is reported as removed.
for side in change parent; do
	while read -r pkg re; do
		bin="$work/$side/${pkg//\//_}.test"
		[ -n "$pkg" ] && [ -x "$bin" ] || continue
		(cd "${src[$side]}/$pkg" && "$bin" -test.run '^$' -test.bench "$re" -test.benchtime 1x -test.timeout 5m) |
			awk -v pkg="$pkg" '/^Benchmark.* ns\/op/ { n = $1; sub(/-[0-9]+$/, "", n); print pkg, n }'
	done <<<"$GATED" >"$work/names.$side"
done
awk 'NR == FNR { have[$0]; next } !($0 in have) { print $2, "removed" }' "$work/names.change" "$work/names.parent" >"$work/removed"

# Each pair times every benchmark on both sides back to back, one
# process per run, so the two runs of a pair share the host's state of
# the moment; which side goes first alternates between pairs.
: >"$table"
for pair in $(seq "$PAIRS"); do
	if ((pair % 2)); then order="parent change"; else order="change parent"; fi
	while read -r pkg name; do
		for side in $order; do
			bin="$work/$side/${pkg//\//_}.test"
			[ -x "$bin" ] || continue
			(cd "${src[$side]}/$pkg" && "$bin" -test.run '^$' -test.bench "^${name//\//\$/^}\$" -test.benchtime "$BENCHTIME" -test.timeout 5m </dev/null) |
				awk -v pair="$pair" -v side="$side" '/^Benchmark.* ns\/op/ { n = $1; sub(/-[0-9]+$/, "", n); print pair, side, n, $3 }'
		done
	done <"$work/names.change" >>"$table"
done

# One change/parent ratio per benchmark and pair, sorted so each
# benchmark's ratios are contiguous and ascending; then the medians.
printf '%-44s %s\n' benchmark "median change/parent ns/op over $PAIRS pairs"
awk '{ ns[$1 SUBSEP $2 SUBSEP $3] = $4; key[$1 SUBSEP $3] = $3 }
	END {
		for (k in key) {
			split(k, f, SUBSEP); p = ns[f[1], "parent", f[2]]; c = ns[f[1], "change", f[2]]
			if (p == "") print key[k], "new"; else if (c != "") print key[k], c / p
		}
	}' "$table" | cat - "$work/removed" | sort -k1,1 -k2,2g | awk -v max="$MAX_RATIO" '
	function flush() {
		if (name == "") return
		if (gone) { printf "%-44s removed, not gated\n", name; return }
		if (n == 0) { printf "%-44s new, not gated\n", name; return }
		m = n % 2 ? r[(n + 1) / 2] : (r[n / 2] + r[n / 2 + 1]) / 2
		verdict = "ok"
		if (m > max) { verdict = "FAIL"; bad++ }
		printf "%-44s %.3f %s\n", name, m, verdict
	}
	$1 != name { flush(); name = $1; n = 0; gone = 0 }
	$2 == "removed" { gone = 1; next }
	$2 != "new" { r[++n] = $2 }
	END {
		flush()
		if (bad) { printf "benchgate: %d benchmark(s) slower than %.2fx their parent\n", bad, max; exit 1 }
	}'

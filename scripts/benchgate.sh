#!/usr/bin/env bash
# The offline performance gate over the package benchmarks. Run it from
# anywhere inside the repository:
#
#   bash scripts/benchgate.sh          # ratio checks on the working tree
#   bash scripts/benchgate.sh main     # ... plus a comparison against main
#
# Ratio checks, on medians of 5 runs: BenchmarkMulTo1024 (tiled kernel,
# full shared pool) at least 1.5x faster than BenchmarkMulNaive1024;
# BenchmarkSpanUnsampled allocation-free and at least 10x cheaper than
# BenchmarkSpanSampled; BenchmarkPublishRepair256 faster than
# BenchmarkPublishRebuild256.
# Given a base ref, it also builds BenchmarkMulTo1024, the disk-tier reads
# (BenchmarkRowMiss, BenchmarkRowHit, BenchmarkEntryMiss, BenchmarkEntryHit),
# the ccserve read handlers (BenchmarkServeDist, BenchmarkServeBatch64,
# BenchmarkServePath), the oracle publishes (BenchmarkPublishRebuild256,
# BenchmarkPublishRepair256), the greedy spanner (BenchmarkGreedy, sparse,
# and BenchmarkGreedySkeleton, shaped like the skeleton graph of a build)
# and the whole build (BenchmarkBuild512) from a temporary git worktree of
# that ref, runs base and working tree in 5 rounds that alternate which side
# runs first, and fails if a working-tree median ns/op exceeds the base's
# divided by (1 - bound), where bound is the ops_per_s bound in
# BENCHMARK.json. A benchmark missing at the base passes.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
bound=$(jq -e -r '.end_to_end[] | select(.name == "ops_per_s") | .bound' BENCHMARK.json)
tmp=$(mktemp -d)
cleanup() {
	if [[ -d $tmp/base ]]; then git worktree remove --force "$tmp/base" || true; fi
	rm -rf "$tmp"
}
trap cleanup EXIT

# compile DIR NAME PKG: builds PKG's test binary from the tree at DIR as
# $tmp/NAME.test (no binary when DIR lacks the package).
compile() {
	if [[ -d $1/$3 ]]; then (cd "$1" && go test -c -o "$tmp/$2.test" "./$3"); fi
}

# bench NAME PATTERN BENCHTIME COUNT: runs the matching benchmarks of
# $tmp/NAME.test, appending their result lines to $tmp/NAME.out.
bench() {
	[[ -x $tmp/$1.test ]] || return 0
	if ! "$tmp/$1.test" -test.run '^$' -test.bench "$2" -test.benchtime "$3" \
		-test.count "$4" -test.benchmem -test.timeout 10m >"$tmp/raw" 2>&1; then
		cat "$tmp/raw" >&2
		echo "benchgate: $1 benchmarks failed" >&2
		exit 1
	fi
	grep '^Benchmark' "$tmp/raw" >>"$tmp/$1.out" || true
}

# load PREFIX FILE...: sets med[PREFIX<name>] to the median ns/op and
# allocs[PREFIX<name>] to the largest allocs/op of each benchmark in FILEs.
declare -A med allocs
load() {
	local prefix=$1 name m a
	shift
	while read -r name m a; do
		med[$prefix$name]=$m allocs[$prefix$name]=$a
	done < <(cat "$@" 2>/dev/null | awk '{
		name = $1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name); allocs = 0
		for (i = 4; i < NF; i++) if ($(i + 1) == "allocs/op") allocs = $i
		print name, $3, allocs
	}' | sort -k1,1 -k2,2g | awk '
		function flush() { if (n) print cur, v[int((n + 1) / 2)], maxa }
		$1 != cur { flush(); cur = $1; n = 0; maxa = 0 }
		{ v[++n] = $2; if ($3 > maxa) maxa = $3 }
		END { flush() }')
}

failed=0
# check DESCRIPTION AWK-CONDITION
check() {
	if awk "BEGIN { exit !($2) }"; then
		echo "ok    $1"
	else
		echo "FAIL  $1" >&2
		failed=1
	fi
}

compile . minplus internal/minplus
compile . trace obs/trace
compile . oracle oracle
compile . tier tier
bench minplus '^Benchmark(MulNaive|MulTo)1024$' 1x 5
bench trace '^BenchmarkSpan(Sampled|Unsampled)$' 100000x 5
bench oracle '^BenchmarkPublish(Rebuild|Repair)256$' 10x 5
load "" "$tmp"/{minplus,trace,oracle}.out

naive=${med[MulNaive1024]:?did not run} tiled=${med[MulTo1024]:?did not run}
check "MulTo1024 ($tiled ns) >= 1.5x faster than MulNaive1024 ($naive ns)" "$naive >= 1.5 * $tiled"
sampled=${med[SpanSampled]:?did not run} unsampled=${med[SpanUnsampled]:?did not run}
check "SpanUnsampled ($unsampled ns) >= 10x cheaper than SpanSampled ($sampled ns)" "$sampled >= 10 * $unsampled"
check "SpanUnsampled allocates nothing (${allocs[SpanUnsampled]} allocs/op)" "${allocs[SpanUnsampled]} == 0"
rebuild=${med[PublishRebuild256]:?did not run} repair=${med[PublishRepair256]:?did not run}
check "PublishRepair256 ($repair ns) faster than PublishRebuild256 ($rebuild ns)" "$rebuild > $repair"

if [[ -n ${1:-} ]]; then
	base=$(git rev-parse --verify "$1^{commit}")
	git worktree add --quiet --detach "$tmp/base" "$base"
	compile "$tmp/base" base-minplus internal/minplus
	compile "$tmp/base" base-tier tier
	compile "$tmp/base" base-ccserve cmd/ccserve
	compile "$tmp/base" base-oracle oracle
	compile "$tmp/base" base-spanner internal/spanner
	compile "$tmp/base" base-root .
	compile . spanner internal/spanner
	compile . ccserve cmd/ccserve
	compile . root .
	rm -f "$tmp"/*.out
	# With the base first in every round, MulTo1024 read 13-21% slower on
	# the working tree with identical code on both sides: the order alone
	# biases a round. Odd rounds run the base first, even rounds the
	# working tree.
	for round in 1 2 3 4 5; do
		sides=(base- "")
		if ((round % 2 == 0)); then sides=("" base-); fi
		for side in "${sides[@]}"; do
			bench "${side}minplus" '^BenchmarkMulTo1024$' 3x 1
			bench "${side}tier" '^Benchmark(Row|Entry)Miss$' 20000x 1
			bench "${side}tier" '^Benchmark(Row|Entry)Hit$' 5000000x 1
			bench "${side}ccserve" '^BenchmarkServe(Dist|Path)$' 20000x 1
			bench "${side}ccserve" '^BenchmarkServeBatch64$' 5000x 1
			bench "${side}oracle" '^BenchmarkPublish(Rebuild|Repair)256$' 10x 1
			bench "${side}spanner" '^BenchmarkGreedy(Skeleton)?$' 20x 1
			bench "${side}root" '^BenchmarkBuild512$' 10x 1
		done
	done
	load base: "$tmp"/base-{minplus,tier,ccserve,oracle,spanner,root}.out
	load "" "$tmp"/{minplus,tier,ccserve,oracle,spanner,root}.out
	for b in MulTo1024 RowMiss RowHit EntryMiss EntryHit ServeDist ServeBatch64 ServePath \
		PublishRebuild256 PublishRepair256 Greedy GreedySkeleton Build512; do
		if [[ -z ${med[base:$b]:-} ]]; then
			echo "ok    $b: missing at base ${base:0:12}"
			continue
		fi
		check "$b (${med[$b]:?did not run} ns) within bound $bound of base ${base:0:12} (${med[base:$b]} ns)" \
			"${med[$b]} <= ${med[base:$b]} / (1 - $bound)"
	done
fi
exit "$failed"

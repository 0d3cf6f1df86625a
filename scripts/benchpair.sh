#!/usr/bin/env bash
# benchpair.sh BASE [PAIRS] — paired benchmark runs of BASE against the
# working tree. For every workload in BENCHMARK.json it runs PAIRS
# (default 10) pairs of `bash perfbench/run.sh --workload W --trace 0`,
# one run per side, alternating which side runs first. BASE is checked
# out and built in a git worktree under .bench_build/, removed on exit.
#
#   bash scripts/benchpair.sh HEAD~1 > BENCH.json
#
# For each end-to-end metric it prints to stderr the median and quartiles
# of each side, the pairs the change won (ties count for neither) and a
# verdict:
#   gain        the change won at least 9/10 of the pairs and its median
#               is better than BASE's by more than BASE's quartile spread
#   worse       the change's median is worse than BASE's by more than the
#               metric's bound
#   unresolved  BASE's own quartile spread exceeds the bound, and not every
#               change run beats every BASE run
#   within      none of the above
# It also checks that both sides produced the same result digests and no
# failed operations. The same figures, with every run's value and both
# host lines, go to stdout as JSON. Raw run outputs stay in
# .bench_build/benchpair/.
#
# Before the pairs it runs each workload once per side with --trace 1 and
# fails unless the change's last line is a JSON result reporting at least
# as many of BENCHMARK.json's per-layer metrics as BASE's: a traced run
# can exit 0 yet omit a metric (a core.stage one, when the profile no
# longer resolves its stage method). For every core.stage metric BASE
# reported and the change did not, it re-resolves the change's saved CPU
# profile with no node-fraction cut and prints the stage's cumulative time
# and share, and whether pprof marks it inlined; the gate still fails.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: $0 BASE [PAIRS]" >&2
	exit 2
fi
base=$1
pairs=${2:-10}
case $pairs in
'' | *[!0-9]* | 0)
	echo "$0: PAIRS must be a positive integer" >&2
	exit 2
	;;
esac

root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "$base^{commit}")
mkdir -p .bench_build
wt=$(mktemp -d "$root/.bench_build/benchpair-base.XXXXXX")
out="$root/.bench_build/benchpair"
rm -rf "$out"
mkdir -p "$out"
cleanup() { git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"; }
trap cleanup EXIT
rmdir "$wt"
git worktree add --detach --quiet "$wt" "$base_sha"

workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
runs="$out/runs.jsonl"
: >"$runs"

# run_side SIDE DIR WORKLOAD PAIR runs one benchmark and appends its result
# line, tagged with workload, side, pair and digest lines, to $runs.
run_side() {
	local side=$1 dir=$2 w=$3 i=$4
	local log="$out/$w.$side.$i.txt"
	echo "benchpair: $w pair $i/$pairs: $side" >&2
	(cd "$dir" && bash perfbench/run.sh --workload "$w" --trace 0) >"$log" 2>"$log.err" || {
		echo "benchpair: $side run failed, see $log.err" >&2
		exit 1
	}
	grep -m1 '^host ' "$log" | sed 's/^host //' >"$out/host.$side.json"
	tail -n 1 "$log" | jq -c --arg w "$w" --arg side "$side" --argjson pair "$i" \
		--argjson digests "$(grep '^digest ' "$log" | sed 's/^digest //' | jq -R . | jq -s .)" \
		'{workload: $w, side: $side, pair: $pair, digests: $digests} + .' >>"$runs"
}

# traced_layers SIDE DIR WORKLOAD runs one traced benchmark, keeps its CPU
# profile as $out/WORKLOAD.SIDE.cpu.pprof and prints the per-layer metric
# names its last line reports, one per line; it prints nothing when that
# line is not a JSON result.
traced_layers() {
	local side=$1 dir=$2 w=$3
	local log="$out/$w.$side.trace.txt"
	echo "benchpair: $w traced: $side" >&2
	(cd "$dir" && bash perfbench/run.sh --workload "$w" --trace 1) >"$log" 2>"$log.err" || {
		echo "benchpair: $side traced run failed, see $log.err" >&2
		exit 1
	}
	cp "$dir/.bench_build/out/$w-seed1-cpu.pprof" "$out/$w.$side.cpu.pprof" 2>/dev/null || true
	tail -n 1 "$log" | jq -r --slurpfile spec BENCHMARK.json \
		'select(type == "object" and (.metrics | type) == "object")
		| .metrics | keys[] | select(IN($spec[0].per_layer[].name))' 2>/dev/null || true
}

# explain_stage WORKLOAD METRIC prints why the change's traced run lacks
# core.stage METRIC: the stage's rows in its profile resolved with
# -nodefraction=0, which perfbench's default 0.5% cut may have dropped.
explain_stage() {
	local w=$1 m=$2 prof="$out/$1.change.cpu.pprof" fn
	fn="smtfetch/internal/core.(*Sim).$(sed 's/^core\.stage\.//; s/\.ns_per_cycle$//' <<<"$m")"
	if [ ! -s "$prof" ]; then
		echo "$m absent and no saved profile to re-resolve"
		return
	fi
	PPROF_TMPDIR="$out" go tool pprof -top -nodecount=1000000 -nodefraction=0 -unit=ns "$prof" 2>/dev/null |
		awk -v m="$m" -v fn="$fn" '
			$6 == fn {
				found = 1
				printf "%s absent; at -nodefraction=0 %s has cum %s, %d samples at 100 Hz (%s of the profile)%s\n",
					m, fn, $4, $4 / 1e7, $5, ($NF == "(inline)" ? ", marked (inline)" : ", not inlined")
			}
			END { if (!found) printf "%s absent; %s is not in the profile even at -nodefraction=0\n", m, fn }'
}

traced="$out/traced.jsonl"
: >"$traced"
for w in $workloads; do
	base_layers=$(traced_layers base "$wt" "$w")
	change_layers=$(traced_layers change "$root" "$w")
	rec=$(jq -n -c --arg w "$w" --arg b "$base_layers" --arg c "$change_layers" '
		($b | split("\n") | map(select(. != ""))) as $b
		| ($c | split("\n") | map(select(. != ""))) as $c
		| {workload: $w, base: ($b | length), change: ($c | length), missing: ($b - $c)}')
	why=$(for m in $(jq -r '.missing[] | select(startswith("core.stage."))' <<<"$rec"); do
		explain_stage "$w" "$m"
	done)
	if [ -n "$why" ]; then
		sed "s/^/benchpair: $w: /" <<<"$why" >&2
	fi
	rec=$(jq -c --arg why "$why" '. + {absent: ($why | split("\n") | map(select(. != "")))}' <<<"$rec")
	echo "$rec" >>"$traced"
	if [ -z "$change_layers" ]; then
		echo "benchpair: $w: the change's traced run did not end in a JSON result with metrics, see $out/$w.change.trace.txt" >&2
		exit 1
	fi
	if ! jq -e '.change >= .base' <<<"$rec" >/dev/null; then
		echo "benchpair: $w: the change's traced run reports fewer per-layer metrics than BASE's: $rec" >&2
		exit 1
	fi
done

for w in $workloads; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run_side base "$wt" "$w" "$i"
			run_side change "$root" "$w" "$i"
		else
			run_side change "$root" "$w" "$i"
			run_side base "$wt" "$w" "$i"
		fi
	done
done

# Go stamps a build in a worktree nested inside this checkout with the
# outer checkout's commit, so the base host line takes BASE's commit.
jq -n --slurpfile spec BENCHMARK.json --slurpfile all "$runs" --slurpfile traced "$traced" \
	--slurpfile hb "$out/host.base.json" --slurpfile hc "$out/host.change.json" \
	--arg base "$base" --arg base_sha "$base_sha" --argjson pairs "$pairs" '
def quant($p): sort as $s | ($s | length) as $n | ($p * ($n - 1)) as $h | ($h | floor) as $lo
	| $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo]);
def summary: {median: quant(0.5), q1: quant(0.25), q3: quant(0.75), runs: .};
$spec[0] as $spec
| {
	base: "\($base) (\($base_sha))",
	change: "working tree",
	pairs: $pairs,
	command: "bash perfbench/run.sh --workload W --trace 0",
	traced_per_layer_metrics: ($traced | map({key: .workload, value: del(.workload)}) | from_entries),
	host: {base: ($hb[0] + {commit: $base_sha}), change: $hc[0]},
	workloads: ($spec.workloads | map(.name as $w
		| ($all | map(select(.workload == $w and .side == "base")) | sort_by(.pair)) as $b
		| ($all | map(select(.workload == $w and .side == "change")) | sort_by(.pair)) as $c
		| {key: $w, value: {
			correct: ($b + $c | all(.correct)),
			attempted: {base: ($b | map(.attempted) | add), change: ($c | map(.attempted) | add)},
			failed: {base: ($b | map(.failed) | add), change: ($c | map(.failed) | add)},
			digests_agree: ($b + $c | map(.digests[]) | unique | map(split(" sha256:"))
				| group_by(.[0]) | all(length == 1)),
			metrics: ($spec.end_to_end | map(. as $m
				| ($b | map(.metrics[$m.name].value)) as $bv
				| ($c | map(.metrics[$m.name].value)) as $cv
				| ($bv | summary) as $bs | ($cv | summary) as $cs
				| (if $m.better == "lower" then 1 else -1 end) as $sign
				| ($sign * ($bs.median - $cs.median)) as $gain
				| ([range(0; $bv | length)] | map(select($sign * ($bv[.] - $cv[.]) > 0)) | length) as $wins
				| {key: $m.name, value: {
					unit: $m.unit, better: $m.better, bound: $m.bound,
					base: $bs, change: $cs,
					ratio: (if $bs.median == 0 then null else $cs.median / $bs.median end),
					change_wins: $wins,
					verdict: (
						if $wins * 10 >= 9 * ($bv | length) and $gain > ($bs.q3 - $bs.q1) then "gain"
						elif $bs.median != 0 and -$gain / $bs.median > $m.bound then "worse"
						elif $bs.median != 0 and ($bs.q3 - $bs.q1) / $bs.median > $m.bound
							and ([$bv[] as $x | $cv[] as $y | $sign * ($x - $y) > 0] | all | not) then "unresolved"
						else "within" end)
				}})
				| from_entries)
		}})
		| from_entries)
}' >"$out/benchpair.json"

jq -r '
"base \(.base) against the working tree, \(.pairs) pairs per workload",
"host \(.host.change | tojson)",
(.traced_per_layer_metrics | to_entries[] | "\(.key) traced: \(.value.base) per-layer metrics base, \(.value.change) change"),
(.workloads | to_entries[] | .key as $w | .value
	| "",
	"\($w): correct \(.correct), failed \(.failed.base)/\(.attempted.base) base, \(.failed.change)/\(.attempted.change) change, digests agree \(.digests_agree)",
	(.metrics | to_entries[] | .value as $v
		| "  \(.key | . + " " * (15 - length)) base \($v.base.median | tostring | .[0:9]) [\($v.base.q1 | tostring | .[0:9]), \($v.base.q3 | tostring | .[0:9])]  change \($v.change.median | tostring | .[0:9]) [\($v.change.q1 | tostring | .[0:9]), \($v.change.q3 | tostring | .[0:9])] \($v.unit)  wins \($v.change_wins)/\($v.base.runs | length)  \($v.verdict)"))
' "$out/benchpair.json" >&2
cat "$out/benchpair.json"

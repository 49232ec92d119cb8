#!/usr/bin/env bash
# bench-gate: run the repository benchmark (bench/run.sh, BENCHMARK.json)
# on a base commit and on this checkout.
#
#   bash scripts/bench-gate.sh <base-ref> [<base-dir>]      (make bench-gate BASE=<ref>)
#   bash scripts/bench-gate.sh <base-ref> [<base-dir>] --pairs N --workload W [--seed S]
#
# The base is checked out with `git worktree` under .bench_build/base and
# removed again on exit — unless <base-dir> names an existing checkout of
# <base-ref> (a `git clone` or `git archive` copy, for sandboxes where a
# worktree is not allowed), which is then used as it is and left alone.
#
# Gate mode (the default): every workload BENCHMARK.json lists runs once
# per side with --seed 1 --seconds 15 --trace 0, and the side that goes
# first alternates from workload to workload. Gated: a run that is not
# "correct": true with 0 failed operations, and rounds_per_pass,
# load_over_bound_max or alloc_mb_per_pass worse than the base by more
# than the metric's bound in BENCHMARK.json (a move for the better is
# reported, not failed). The timing metrics are printed and never gated:
# one pair on a shared runner cannot resolve them.
#
# Pairs mode (--pairs N --workload W): N base/head pairs of the one
# workload, alternating which side goes first, then each side's median and
# quartiles for every end-to-end metric and how many pairs the head won —
# the procedure a performance claim is shown with (nine wins in ten and a
# median gap wider than the base's own quartile spread). Printed, never
# gated; a wrong or failed run still fails the script.
set -euo pipefail
usage="usage: bench-gate.sh <base-ref> [<base-dir>] [--pairs N --workload W [--seed S]]"
base_ref="${1:?$usage}"
shift
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
base_dir="" pairs=0 workload="" seed=1
while (($#)); do
	case "$1" in
	--pairs) pairs="${2:?$usage}" && shift 2 ;;
	--workload) workload="${2:?$usage}" && shift 2 ;;
	--seed) seed="${2:?$usage}" && shift 2 ;;
	-*) echo "$usage" >&2 && exit 2 ;;
	*) base_dir="$(cd "$1" && pwd)" && shift ;;
	esac
done
if ((pairs > 0)) && [[ -z "$workload" ]]; then
	echo "$usage" >&2
	exit 2
fi
out_dir="$root/.bench_build/gate"
mkdir -p "$out_dir"

if [[ -n "$base_dir" ]]; then
	# A clone can be checked against the ref; an archive copy has no
	# history of its own and is taken on trust.
	if [[ "$(git -C "$base_dir" rev-parse --show-toplevel 2>/dev/null)" == "$base_dir" ]]; then
		want="$(git rev-parse "$base_ref^{commit}")"
		have="$(git -C "$base_dir" rev-parse HEAD)"
		if [[ "$have" != "$want" ]]; then
			echo "bench-gate: $base_dir is at $have, not at $base_ref ($want)" >&2
			exit 2
		fi
	fi
else
	base_dir="$root/.bench_build/base"
	cleanup() {
		git worktree remove --force "$base_dir" >/dev/null 2>&1 || true
		git worktree prune
	}
	trap cleanup EXIT
	cleanup
	git worktree add --detach "$base_dir" "$base_ref" >/dev/null
fi
echo "bench-gate: base $(git rev-parse --short "$base_ref") in $base_dir vs head $(git rev-parse --short HEAD)$(git diff --quiet || echo ' + uncommitted changes')"

# run <side> <workload> <result-file>: the result is the run's last line.
run() {
	local dir="$root"
	[[ "$1" == base ]] && dir="$base_dir"
	echo "bench-gate: $2 on $1" >&2
	# A wrong answer exits 2 after printing its result line; the comparison
	# below reports it, so the exit status is not what fails the gate.
	(cd "$dir" && bash bench/run.sh --workload "$2" --seed "$seed" --seconds 15 --trace 0 || true) | tail -n 1 >"$3"
}

# both <i> <workload> <tag>: one base run and one head run, base first
# when i is even.
both() {
	local first=base second=head
	(($1 % 2)) && first=head second=base
	run "$first" "$2" "$out_dir/$3.$first.json"
	run "$second" "$2" "$out_dir/$3.$second.json"
}

if ((pairs > 0)); then
	for ((i = 0; i < pairs; i++)); do
		both "$i" "$workload" "$workload.pair$i"
	done
	python3 - "$out_dir" "$workload" "$pairs" "$seed" <<'PY'
import json, statistics, sys
out, w, pairs, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
bench = json.load(open("BENCHMARK.json"))
runs = {s: [] for s in ("base", "head")}
for i in range(pairs):
    for s in runs:
        try:
            r = json.load(open(f"{out}/{w}.pair{i}.{s}.json"))
        except ValueError:
            sys.exit(f"bench-gate: FAIL\n  {w}: pair {i} {s} run printed no result line")
        if not r["correct"] or r["failed"]:
            sys.exit(f"bench-gate: FAIL\n  {w}: pair {i} {s} run correct={r['correct']} failed={r['failed']}")
        runs[s].append(r["metrics"])
def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3
print(f"bench-gate: {w}, seed {seed}, {pairs} alternating pairs (timings printed, not gated)")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    b, h = ([r[name]["value"] for r in runs[s]] for s in ("base", "head"))
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
    ties = sum(x == y for x, y in zip(b, h))
    (bq1, bmed, bq3), (hq1, hmed, hq3) = quartiles(b), quartiles(h)
    ratio = f"{hmed / bmed:6.3f}" if bmed else "   n/a"
    print(f"{name:20} base {bmed:10.3f} [{bq1:10.3f}, {bq3:10.3f}]  head {hmed:10.3f} [{hq1:10.3f}, {hq3:10.3f}]"
          f"  head/base {ratio}  head wins {wins}/{pairs - ties}")
    if name in ("pass_ms", "req_per_s"):
        print(f"{'':20} pairs base→head: " + ", ".join(f"{x:.4g}→{y:.4g}" for x, y in zip(b, h)))
PY
	exit
fi

i=0
for w in $(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])'); do
	both $((i++)) "$w" "$w"
done

python3 - "$out_dir" <<'PY'
import json, sys
out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
gated = ("rounds_per_pass", "load_over_bound_max", "alloc_mb_per_pass")
failed = []
for w in (w["name"] for w in bench["workloads"]):
    try:
        side = {s: json.load(open(f"{out}/{w}.{s}.json")) for s in ("base", "head")}
    except ValueError:
        failed.append(f"{w}: a run printed no result line (build or harness failure, see above)")
        continue
    for s, r in side.items():
        if not r["correct"] or r["failed"]:
            failed.append(f"{w}: {s} run correct={r['correct']} failed={r['failed']}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        b, h = (side[s]["metrics"][name]["value"] for s in ("base", "head"))
        worse = (h - b if m["better"] == "lower" else b - h) / abs(b) if b else float(h != b)
        verdict = "reported"
        if name in gated:
            verdict = "FAIL" if worse > bound else "improved" if worse < -bound else "ok"
            if verdict == "FAIL":
                failed.append(f"{w}: {name} {b} -> {h} is worse by more than {bound:.0%}")
        print(f"{w:14} {name:20} base {b:>12.4f}  head {h:>12.4f}  {worse:+8.2%}  {verdict}")
if failed:
    sys.exit("bench-gate: FAIL\n  " + "\n  ".join(failed))
print("bench-gate: ok")
PY

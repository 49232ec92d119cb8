#!/usr/bin/env bash
# bench-gate: run the repository benchmark (bench/run.sh, BENCHMARK.json)
# on a base commit and on this checkout and fail when a deterministic
# metric got worse.
#
#   bash scripts/bench-gate.sh <base-ref>        (make bench-gate BASE=<ref>)
#
# The base is checked out with `git worktree` under .bench_build/base and
# removed again on exit. Every workload BENCHMARK.json lists runs once per
# side with --seed 1 --seconds 15 --trace 0, and the side that goes first
# alternates from workload to workload. Gated: a run that is not
# "correct": true with 0 failed operations, and rounds_per_pass,
# load_over_bound_max or alloc_mb_per_pass worse than the base by more
# than the metric's bound in BENCHMARK.json (a move for the better is
# reported, not failed). The timing metrics are printed and never gated:
# one pair on a shared runner cannot resolve them.
set -euo pipefail
base_ref="${1:?usage: bench-gate.sh <base-ref>}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
base_dir="$root/.bench_build/base"
out_dir="$root/.bench_build/gate"

cleanup() {
	git worktree remove --force "$base_dir" >/dev/null 2>&1 || true
	git worktree prune
}
trap cleanup EXIT
cleanup
mkdir -p "$out_dir"
git worktree add --detach "$base_dir" "$base_ref" >/dev/null
echo "bench-gate: base $(git -C "$base_dir" rev-parse --short HEAD) vs head $(git rev-parse --short HEAD)$(git diff --quiet || echo ' + uncommitted changes')"

# run <side> <checkout> <workload>: the result is the run's last line.
run() {
	echo "bench-gate: $3 on $1" >&2
	# A wrong answer exits 2 after printing its result line; the comparison
	# below reports it, so the exit status is not what fails the gate.
	(cd "$2" && bash bench/run.sh --workload "$3" --seed 1 --seconds 15 --trace 0 || true) | tail -n 1 >"$out_dir/$3.$1.json"
}

i=0
for w in $(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])'); do
	if ((i++ % 2 == 0)); then
		run base "$base_dir" "$w"
		run head "$root" "$w"
	else
		run head "$root" "$w"
		run base "$base_dir" "$w"
	fi
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

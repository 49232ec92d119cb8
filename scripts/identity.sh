#!/usr/bin/env bash
# identity: show that this checkout produces byte-for-byte what a base
# checkout produces — the proof a refactor of shared code owes.
#
#   bash scripts/identity.sh <base-dir>          (make identity BASE_DIR=<dir>)
#
# <base-dir> is an existing checkout of the commit to compare against (a
# `git clone` or `git archive` copy, as bench-gate.sh accepts). Both sides
# build boundcheck, chaos and mpcbench from their own source and run
#
#   boundcheck -quick -trace            BOUND_trace.json
#   boundcheck -planner -quick          PLAN_report.json
#   chaos -quick -workers 4             CHAOS_report.json
#   chaos -quick -workers 4 -transport tcp   CHAOS_tcp_report.json
#   mpcbench -experiment all -quick     rows_all.json
#   mpcbench -graph -quick              rows_graph.json
#
# The four reports must be cmp-identical; the two row files identical once
# the wallNs and commit fields are stripped; every command's stdout
# identical once mpcbench's "completed in" lines are stripped. Exits
# non-zero on any difference (or any failing run) and leaves both sides'
# outputs under .bench_build/identity/{base,head} for diffing. ~30 s.
set -euo pipefail
base_dir="$(cd "${1:?usage: identity.sh <base-dir>}" && pwd)"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/identity"
rm -rf "$out"

# side <name> <checkout>: build the three commands there, run the six lanes.
side() {
	local dir="$out/$1"
	mkdir -p "$dir"
	echo "identity: running $1 ($2)" >&2
	(cd "$2" && go build -o "$dir/" ./cmd/boundcheck ./cmd/chaos ./cmd/mpcbench)
	(
		cd "$dir"
		./boundcheck -quick -trace -json BOUND_trace.json >bound.txt
		./boundcheck -planner -quick -json PLAN_report.json >plan.txt
		./chaos -quick -workers 4 -json CHAOS_report.json >chaos.txt
		./chaos -quick -workers 4 -transport tcp -json CHAOS_tcp_report.json >chaos_tcp.txt
		./mpcbench -experiment all -quick -json rows_all.json | grep -v 'completed in' >all.txt
		./mpcbench -graph -quick -json rows_graph.json | grep -v 'completed in' >graph.txt
		for rows in rows_all rows_graph; do
			grep -v -e '"wallNs"' -e '"commit"' "$rows.json" >"$rows.stripped"
		done
	)
}
side base "$base_dir"
side head "$root"

status=0
for f in BOUND_trace.json PLAN_report.json CHAOS_report.json CHAOS_tcp_report.json \
	rows_all.stripped rows_graph.stripped \
	bound.txt plan.txt chaos.txt chaos_tcp.txt all.txt graph.txt; do
	if cmp -s "$out/base/$f" "$out/head/$f"; then
		echo "identity: $f identical"
	else
		echo "identity: $f DIFFERS (diff $out/base/$f $out/head/$f)"
		status=1
	fi
done
exit $status

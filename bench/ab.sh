#!/usr/bin/env bash
# Paired A/B of the benchmark: the working tree (head) against a git
# revision (base), on this machine.
#
#   bash bench/ab.sh BASE [PAIRS]
#
# BASE is checked out in a git worktree under .bench_build/ab, and the
# head's bench/ directory is copied over the base's, so both sides run the
# same benchmark code against their own program. Each of the PAIRS pairs
# (default 10, at least 10) draws a fresh seed and runs every workload once
# on each side, untraced, at the benchmark's own run length and with
# identical flags, alternating which side runs first. The summary gives
# each side's median and quartiles per metric and workload, the head's win
# count, and whether the head wins at least 9/10 of the pairs by more than
# the base's own quartile spread.
set -euo pipefail

base=${1:?usage: bench/ab.sh BASE [PAIRS]}
pairs=${2:-10}
if ((pairs < 10)); then
	echo "ab.sh: PAIRS must be at least 10" >&2
	exit 2
fi

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work="$root/.bench_build/ab"
results="$work/results.txt"
git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
rm -rf "$work"
mkdir -p "$work" "$root/.bench_build/gocache"
git -C "$root" worktree add --detach "$work/base" "$base" >/dev/null
trap 'git -C "$root" worktree remove --force "$work/base"' EXIT
rm -rf "$work/base/bench"
cp -R "$root/bench" "$work/base/bench"
# Both sides share one Go build cache, so the base needs no cold build.
mkdir -p "$work/base/.bench_build"
ln -s "$root/.bench_build/gocache" "$work/base/.bench_build/gocache"

for ((i = 1; i <= pairs; i++)); do
	seed=$((RANDOM * 32768 + RANDOM))
	sides="base head"
	if ((i % 2 == 0)); then sides="head base"; fi
	for w in paper-cold paper-warm walk-heavy update-heavy; do
		for side in $sides; do
			dir=$root
			if [[ $side == base ]]; then dir=$work/base; fi
			line=$(bash "$dir/bench/run.sh" -workload "$w" -seed "$seed" -trace 0 | tail -n 1)
			echo "$side $w $i $line" >>"$results"
			echo "pair $i/$pairs seed $seed $w $side done" >&2
		done
	done
done
bash "$root/bench/run.sh" -ab-summary "$results"

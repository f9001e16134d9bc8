#!/usr/bin/env bash
# bench.sh — run the hot-path benchmark suite and emit a JSON snapshot
# (BENCH_<sha>.json) of ns/op, B/op and allocs/op per benchmark, so the
# perf trajectory across PRs can be compared from saved artifacts.
#
# Usage:
#   scripts/bench.sh [output-dir]          # default output-dir: repo root
#   BENCHTIME=5x scripts/bench.sh          # longer runs for stable numbers
#   BENCH='SimDay' scripts/bench.sh        # restrict the benchmark set
#   BENCH_ALLOW_DIRTY=1 scripts/bench.sh   # measure an uncommitted tree
#                                          # (snapshot marked -dirty, never
#                                          # to be committed)
#
# The default set covers the per-day hot path on its arena forms
# (SimDayInto, the EngineDay pattern's DayAppend benchmarks with and
# without instrumentation, DayMetricsMerger, MergeVisits), the
# end-to-end serial/streaming pipelines, the copy-on-divergence
# registry sweep (SweepSharedPrefix),
# the ScaleLadder rungs (8k/100k/1M users; the 1M rung takes tens of
# seconds to build — set BENCH to exclude it for quick local loops),
# FeedReplay, PopulationSynthesis (the subscriber base at 8k/50k),
# PickTower (one active-site draw), PartitionDir (a cold 2-shard
# split of a two-week 8k-user columnar feed), ShardReplay (a cold
# one-worker replay of that feed into a partial recorder, as each
# replay shard runs), KPIAnalyzerFork (one
# KPI fold fork, as a shared-prefix sweep's checkpoints take),
# StreamHomes (the February home pass on an 8-shard stream.Homes),
# TopologyBuild (deploying the radio estate), SimulatorNew (binding a
# simulator, one reselection scan per home tower) and
# ReselectionNeighbor (one bounded reselection scan).
# Compare snapshots with scripts/benchdiff.sh.
#
# Snapshots are named BENCH_<sha>.json after the commit they measure, so
# the script refuses to run on a dirty tree: numbers measured on
# uncommitted code attributed to a clean HEAD sha poison the perf
# trajectory. Set BENCH_ALLOW_DIRTY=1 for local experiments — the
# snapshot is then suffixed -dirty, which .gitignore keeps out of the
# repository. See PERFORMANCE.md ("Snapshot hygiene").
set -euo pipefail

cd "$(dirname "$0")/.."
out_dir="${1:-.}"
sha=$(git rev-parse --short HEAD 2>/dev/null || echo nogit)
# Label snapshots of an uncommitted tree honestly: numbers measured on a
# dirty checkout must not be attributed to the clean HEAD commit.
# `git status --porcelain` also catches untracked sources, which
# `git diff HEAD` would miss.
if [ "$sha" != nogit ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
  if [ "${BENCH_ALLOW_DIRTY:-0}" != 1 ]; then
    echo "bench.sh: working tree is dirty; commit (or stash) first, or set" >&2
    echo "BENCH_ALLOW_DIRTY=1 for a local -dirty snapshot (never commit those)." >&2
    exit 1
  fi
  sha="${sha}-dirty"
fi
benchtime="${BENCHTIME:-1x}"
pattern="${BENCH:-SimDayInto|EngineDay|DayMetrics|MergeVisits|StreamWorkers1\$|SweepSerial|SweepParallel|SweepSharedPrefix|ScaleLadder|FeedReplay|PopulationSynthesis|PickTower|PartitionDir|ShardReplay|KPIAnalyzerFork|StreamHomes|TopologyBuild|SimulatorNew|ReselectionNeighbor}"

# Runner metadata: numbers are only comparable between snapshots taken on
# similar hardware, so record what ran them. benchdiff warns when the two
# snapshots it diffs disagree on core count.
go_version=$(go version | { read -r _ _ v _; echo "$v"; })
numcpu=$( { getconf _NPROCESSORS_ONLN || nproc || echo 0; } 2>/dev/null)
maxprocs="${GOMAXPROCS:-$numcpu}"
commit_date=$(git show -s --format=%cI HEAD 2>/dev/null || echo "")

raw=$(go test -run='^$' -bench="$pattern" -benchtime="$benchtime" -benchmem .)
printf '%s\n' "$raw" >&2

out="$out_dir/BENCH_${sha}.json"
{
  printf '{\n'
  printf '  "sha": "%s",\n' "$sha"
  printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "commit_date": "%s",\n' "$commit_date"
  printf '  "go": "%s",\n' "$go_version"
  printf '  "gomaxprocs": %s,\n' "$maxprocs"
  printf '  "numcpu": %s,\n' "$numcpu"
  printf '  "benchtime": "%s",\n' "$benchtime"
  printf '  "results": [\n'
  printf '%s\n' "$raw" | awk '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      ns = "null"; bop = "null"; aop = "null"
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns  = $(i-1)
        if ($i == "B/op")      bop = $(i-1)
        if ($i == "allocs/op") aop = $(i-1)
      }
      lines[n++] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bop, aop)
    }
    END { for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "") }
  '
  printf '  ]\n'
  printf '}\n'
} > "$out"
echo "wrote $out" >&2

#!/usr/bin/env bash
# Tier-1 gate: the exact configure/build/ctest sequence CI runs, followed by
# the sanitizer sweep. Run this before merging anything that touches src/.
#
# Usage: scripts/check_tier1.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j "$@")

# Device-backend A/B: the device-initiated suites run under both engines.
# Differential tests pin and compare backends internally; the env-driven
# tests follow GDRSHMEM_DEVICE_BACKEND, so each pass exercises option
# parsing end-to-end plus the selected engine as the process-wide default.
# The fault-injection suite rides along: its recovery paths are the same
# code as the healthy ones and must hold under either engine. FromEnv
# checks the flipped key reaches from_env() and RuntimeOptions{} alike.
for dev_backend in gpu-ib reverse; do
  echo "== device-backend A/B: GDRSHMEM_DEVICE_BACKEND=$dev_backend =="
  (cd build && GDRSHMEM_DEVICE_BACKEND=$dev_backend \
     ctest --output-on-failure -R 'DeviceApi|Stencil2DDevice|FaultInjection|FromEnv|TransportEnv')
done

# IB-transport A/B: the byte-exact differential suites run with the
# process-wide default transport flipped across the RC mesh, the DC pool,
# and the relaxed-ordering SRD spray, exercising GDRSHMEM_IB_TRANSPORT
# parsing end-to-end plus every protocol path over the selected QP
# discipline, and so do the fault-recovery suites (replay, reissue and
# the proxy-crash paths) and the staging suites (staged puts keep their
# bytes, sources are reusable, each payload byte is copied once).
# (Timing-assertion suites stay on their pinned configs — transports move
# the clock, never the bytes.) FromEnv rides along as in the device pass.
staging_suites='StagingClobber|SourceReuse|FunctionalCopy'
for ib_transport in rc dc srd; do
  echo "== ib-transport A/B: GDRSHMEM_IB_TRANSPORT=$ib_transport =="
  (cd build && GDRSHMEM_IB_TRANSPORT=$ib_transport \
     ctest --output-on-failure \
       -R "TransportDiff|Fuzz|OddSizes|FaultInjection|ProxyCrash|FromEnv|TransportEnv|$staging_suites")
done
# Striping offsets each write's payload exactly as its source leg: run the
# staging suites once with every large write split across two rails.
echo "== ib-rails: GDRSHMEM_IB_RAILS=2 =="
(cd build && GDRSHMEM_IB_RAILS=2 \
   ctest --output-on-failure -R "$staging_suites")

scripts/check_sanitize.sh

# Scale smoke: one 1K-PE barrier+message-rate round under a loose wall
# budget. Catches catastrophic engine scale-out regressions (queue or stack
# management falling over at high PE counts) without the cost of the full
# 64->16K sweep.
build/bench/bench_engine_overhead --scale-smoke

# Checkpoint-service smoke: the faulted open-loop config (proxy crash + P2P
# revocation mid-checkpoint) on both engine backends — digests must match
# bit-for-bit and no acknowledged checkpoint may be lost.
build/bench/bench_checkpoint --smoke

# Bench smoke + perf gate: run every bench quickly (the tables are computed
# once up front; the google-benchmark pass is skipped via a non-matching
# filter), collect each bench's BENCH_<tag>.json, and compare the
# deterministic virtual-time points against the committed baselines.
repo=$PWD
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
for bench in "$repo"/build/bench/bench_*; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  (cd "$smoke_dir" &&
   "$bench" --benchmark_filter='^$' >"$name.log" 2>&1) || {
    echo "bench smoke FAILED: $name"
    tail -20 "$smoke_dir/$name.log"
    exit 1
  }
done
scripts/check_perf.sh "$smoke_dir" bench/baselines

echo "tier-1 check passed"

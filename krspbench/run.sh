#!/usr/bin/env bash
# Builds the kRSP benchmark from the source tree it sits in, then runs it:
#
#   bash krspbench/run.sh --workload <solve-k2|rsp-k1|serve-churn> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
# tree's root. Dune's shared cache is off and temporary files go under the
# build directory, so nothing is written outside the tree. A traced run
# (--trace 1) also writes its spans as Chrome trace-event JSON to
# <build dir>/krspbench-<workload>-<seed>.trace.json. The last line of
# standard output is the result, as JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir="${CARGO_TARGET_DIR:-.bench_build}"
case "$build_dir" in
  /*) export TMPDIR="$build_dir/tmp" ;;
  *) export TMPDIR="$PWD/$build_dir/tmp" ;;
esac
mkdir -p "$TMPDIR"
export DUNE_CACHE=disabled XDG_CACHE_HOME="$TMPDIR"
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . --build-dir "$build_dir" ./krspbench/main.exe 1>&2

workload=unknown
seed=0
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
  case "${args[i]}" in
    --workload) workload="${args[i + 1]}" ;;
    --seed) seed="${args[i + 1]}" ;;
  esac
done
exec "$build_dir/default/krspbench/main.exe" "$@" \
  --chrome "$build_dir/krspbench-$workload-$seed.trace.json"

#!/usr/bin/env bash
# Build bench_e2e, run every workload untraced then traced, and print every
# metric by name with its unit.
#
#   bench_e2e/run.sh [--workload NAME] [--seed N] [--seconds S] [--smoke]
#
# Without --workload it runs all five. The other arguments go to the binary
# unchanged (see README.md). The spans of each traced run are written to
# bench_e2e/out/<workload>.spans.tsv. Exits non-zero when a correctness gate
# fails or a workload's decision_digest differs between its two runs.
set -euo pipefail

cd "$(dirname "$0")/.."  # the checkout root: workloads read scenarios/ and BENCH_cloud.json from here
target="${CARGO_TARGET_DIR:-bench_e2e/target}"
out=bench_e2e/out

workloads=(cloud_flagship rank_mix exec_inproc tick_threaded durable_exec)
pass=()
while (($#)); do
    case "$1" in
    --workload)
        workloads=("${2:?--workload takes a name}")
        shift 2
        ;;
    *)
        pass+=("$1")
        shift
        ;;
    esac
done

# The binary removes its scratch directory (temp journals) itself, also when
# it panics; this catches the case where it is killed.
cleanup() { rm -rf "$target"/release/bench_e2e-tmp-*; }
trap cleanup EXIT

cargo build --release --offline --manifest-path bench_e2e/Cargo.toml
bin="$target/release/bench_e2e"
mkdir -p "$out"

status=0
for workload in "${workloads[@]}"; do
    digests=()
    for trace in 0 1; do
        args=(--workload "$workload" --trace "$trace" ${pass[@]+"${pass[@]}"})
        if ((trace)); then
            args+=(--dump "$out/$workload.spans.tsv")
        fi
        echo "== $workload, trace $trace"
        if ! "$bin" "${args[@]}" >"$out/$workload.trace$trace.log"; then
            status=1
        fi
        # Everything but the machine-readable last line.
        grep -v '^{' "$out/$workload.trace$trace.log" || true
        digests+=("$(grep -o 'decision_digest [0-9a-f]*' "$out/$workload.trace$trace.log" || true)")
    done
    if [[ -z "${digests[0]}" || "${digests[0]}" != "${digests[1]}" ]]; then
        echo "GATE FAILED: $workload: untraced '${digests[0]}' differs from traced '${digests[1]}'" >&2
        status=1
    fi
done
exit "$status"

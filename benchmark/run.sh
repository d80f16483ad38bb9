#!/usr/bin/env bash
# The benchmark's one command: build the harness from source (release,
# offline), then hand the arguments to it.
#
#   benchmark/run.sh                      a full set: 3 interleaved runs of each
#                                         workload + a traced run each, every
#                                         metric printed by name with its unit
#   benchmark/run.sh set --smoke          the same in under half a minute
#   benchmark/run.sh repeat [--sets n]    n sets of the same build, compared
#   benchmark/run.sh manifest             print BENCHMARK.json
#   benchmark/run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
#                                         one run; the last line of standard
#                                         output is the result object
#
# Stores and traces live under benchmark/out/; stores are removed on exit.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")"

# A replicated round journals every tuple twice; a 5 s round writes about
# half a gigabyte before it is removed again.
free_kb="$(df -Pk "$here" | awk 'NR == 2 { print $4 }')"
if [ "${free_kb:-0}" -lt $((2 * 1024 * 1024)) ]; then
    echo "benchmark: less than 2 GB free under $here; refusing to start" >&2
    exit 3
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

mkdir -p benchmark/out
trap 'rm -rf benchmark/out/store-* benchmark/out/ladder-*' EXIT

if [ "$#" -eq 0 ]; then
    set -- set
fi
"${CARGO_TARGET_DIR:-benchmark/target}/release/exacml-benchmark" "$@"

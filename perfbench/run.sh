#!/usr/bin/env bash
# Builds the benchmark and `loloha-cli` from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload rounds-dbmt-osue --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml -p perfbench -p ldp_cli >&2
"${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench" "$@"

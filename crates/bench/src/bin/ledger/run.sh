#!/bin/bash
# Entry point named in BENCHMARK.json: builds the `silc` binary under test
# and the ledger into one build directory, then runs the ledger with the
# arguments given. Run from the repository root.
#
# The ledger is started as a process of its own: not through `cargo run`
# and not with `exec`. Either would make it the successor of a process
# that has waited for compilers, and it would count them among its own
# children and report their memory as the compiler-under-test's.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline
cargo build --release --quiet --offline --manifest-path crates/bench/src/bin/ledger/Cargo.toml
"$CARGO_TARGET_DIR/release/silc-ledger" "$@"

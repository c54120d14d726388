#!/bin/sh
# A/A check: runs the whole benchmark twice on this commit (every workload
# in a fresh child process, untraced then traced), prints per metric and
# workload the relative difference against its bound, and exits non-zero if
# an end-to-end metric disagrees by more than its bound or any op failed.
# Both sets are left in bench/out/check.json. Extra arguments are passed on
# (--seed <n>, --seconds <s>).
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --manifest-path bench/Cargo.toml -- --check "$@"

#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark package from
# source (a no-op when it is current), then runs bench_e2e (--trace 0,
# the default) or bench_trace (--trace 1) with the arguments it was given.
# Run from the root of a checkout: bash benchmark/run.sh --workload <name>
set -euo pipefail

target="${CARGO_TARGET_DIR:-target/benchmark}"
build() {
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml "$@" >&2
}
# The measured binaries: every function starts on a 64-byte boundary.
# Functions are otherwise placed 16-aligned in link order, so relinking
# the same code moves its hot loops across cache-line and fetch-window
# boundaries: the sparse update loop of slu::lu::LuFactors::refactorize
# ran at 0.29 s or 0.51 s on cavity_schur's S depending on where the
# linker happened to put it, and refactor_s moved by 35 % between builds
# of identical library code. This is NOT how the root workspace builds
# what users run, so ...
CARGO_TARGET_DIR="$target" RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-all-functions=6" build
# ... the refactor step alone is built a second time without the flag;
# bench_trace runs it and reports refactor.shipped_build_time_s.
CARGO_TARGET_DIR="$target/shipped" build --bin refactor_probe

bin=bench_e2e
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=bench_trace
    fi
    prev="$arg"
done
CARGO_TARGET_DIR="$target" exec "$target/release/$bin" "$@"

#!/usr/bin/env bash
# The gateway's load rig: build it, then run it.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh --workload W --quick          # two short rounds
#   bash benchmark/run.sh selfcheck [--runs K] [--seconds S] [--out FILE]
#   bash benchmark/run.sh compare A.json B.json
#
# The last line of standard output of a run is its result as one JSON
# object; everything else (build output, per-metric table, waterfall) goes
# to standard error. Works from any directory; writes only under
# benchmark/out and the cargo target directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/loadrig" "$@"

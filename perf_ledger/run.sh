#!/usr/bin/env bash
# The one command of the benchmark: build the product binary (the daemon and
# the shard worker) and this package, then hand all arguments to the
# harness. Without arguments: every workload, untraced then traced.
#
#   perf_ledger/run.sh                      # = run.sh run --seed 0x5EED
#   perf_ledger/run.sh run --seed 7
#   perf_ledger/run.sh --workload eco_loop --seed 1 --seconds 10 --trace 0
#   perf_ledger/run.sh compare a.json b.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds, so the harness finds `gpasta` beside
# itself. A relative CARGO_TARGET_DIR is relative to where we were called.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin gpasta >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
[ -x "$target/release/gpasta" ] || { echo "run.sh: $target/release/gpasta was not built" >&2; exit 1; }

# The harness kills its daemon and removes the spool when it exits or
# panics; this covers the harness itself being killed.
pidfile="$here/target/ledger/daemon.pid"
cleanup() {
    if [ -f "$pidfile" ]; then
        { read -r pid; read -r spool; } < "$pidfile" || true
        [ -n "${pid:-}" ] && kill -9 "$pid" 2>/dev/null || true
        [ -n "${spool:-}" ] && rm -rf "$spool"
        rm -f "$pidfile"
    fi
}
trap cleanup EXIT

[ "$#" -gt 0 ] || set -- run
# In the background, because bash runs a trap only between foreground
# commands: a signal must reach the harness while it is still running.
"$target/release/perf_ledger" "$@" &
harness=$!
trap 'kill "$harness" 2>/dev/null || true; wait "$harness" 2>/dev/null || true; exit 130' INT TERM
wait "$harness"

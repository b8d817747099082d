#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 45 --trace 0
#
# The Go build cache, the binary, data directories and span files all
# stay under .bench_build/ in the checkout. The build fails, and so does
# this script, when the checkout lacks the rdffrag sources.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench.bin" .) >&2
cd "$root"
exec "$out/perfbench.bin" --workdir "$out/perfbench" "$@"

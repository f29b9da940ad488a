#!/usr/bin/env bash
# Builds the SAVAT benchmark from the checkout's sources and runs one
# workload:
#
#   bash savatbench/run.sh --workload paper-fig9 --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run write (Go build cache, binary, scratch state) stays under
# .bench_build/ there. The last line of stdout is the result JSON; build
# output goes to stderr. Without the repository's sources next to this
# directory the build fails and the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH" # the standard install location

(cd "$root/savatbench" && go build -o "$build/savatbench" .) >&2
cd "$root"
exec "$build/savatbench" "$@"

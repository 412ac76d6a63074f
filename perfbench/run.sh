#!/usr/bin/env bash
# Builds perfbench from source and runs it; every argument passes through.
#
#   bash perfbench/run.sh --workload app_scan --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The build cache, the binary and the traced
# runs' span files all go under .bench_build/ in the repository root.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0

if [ -d "$root/.git" ] && commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	:
else
	# Outside a git checkout, name the source by a digest of its Go files.
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --commit "$commit" "$@"

#!/usr/bin/env bash
# Builds jbench from source inside the checkout and runs it with the
# caller's arguments. Everything the Go tool writes (binary, build cache,
# module cache, its own configuration and telemetry) goes under
# .bench_build/ at the checkout root, so nothing outside the checkout is
# read or written. The build is skipped when the binary is newer than every
# Go source of the repo.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
bin="$out/jbench"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
  (cd "$here" && go build -o "$bin" ./jbench)
fi
cd "$root"
exec "$bin" "$@"

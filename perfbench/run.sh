#!/usr/bin/env bash
# Builds ringserve and the perfbench load generator from this checkout, then
# runs one benchmark workload. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload cold-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache, binaries, span files)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"

if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ringserve" ]]; then
	echo "perfbench: $root holds no ringserve source (go.mod, cmd/ringserve)" >&2
	exit 1
fi

mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$root" && go build -o "$out/ringserve" ./cmd/ringserve)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -server "$out/ringserve" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. The build cache, the binary and
# the exported traces stay under .bench_build/ there. The environment is
# cleared of every EASYSCALE_* override and Go runtime setting, so the
# program runs with its defaults (GOMAXPROCS included).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp"

for v in $(compgen -e); do
	case "$v" in
	EASYSCALE_* | GOMAXPROCS | GOGC | GOMEMLIMIT | GODEBUG | GOFLAGS) unset "$v" ;;
	esac
done
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

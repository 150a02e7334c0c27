#!/bin/sh
# lint.sh reproduces the CI lint gate locally: formatting, vet, the
# zero-dependency check on the root module, the analyzer and benchmark
# modules' own tests, and the thriftylint invariant suite over the whole
# tree.
# Run from anywhere inside the repository.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet (root module)"
go vet ./...

echo "==> zero-dependency check (root module)"
deps=$(go list -m all)
if [ "$deps" != "repro" ]; then
    echo "root module grew dependencies:" >&2
    echo "$deps" >&2
    exit 1
fi

echo "==> zero-dependency check (tools/analyzers)"
adeps=$(cd tools/analyzers && go list -m all)
if [ "$adeps" != "repro/tools/analyzers" ]; then
    echo "analyzer module grew dependencies:" >&2
    echo "$adeps" >&2
    exit 1
fi

echo "==> go vet + go test (tools/analyzers)"
(cd tools/analyzers && go vet ./... && go test ./...)

echo "==> go vet + go test -race (bench, its own module)"
(cd bench && go vet ./... && go test -race ./...)

echo "==> thriftylint (14 passes + stale-suppression check; timed — CI pins the analysis budget)"
lint_start=$(date +%s)
(cd tools/analyzers && go run ./cmd/thriftylint -staleallow -C "$root" ./...)
echo "thriftylint sweep took $(($(date +%s) - lint_start))s (load + 14 passes)"

echo "==> thriftylint (bench, its own module; the root module loads through its replace)"
(cd tools/analyzers && go run ./cmd/thriftylint -staleallow -C "$root/bench" ./...)

echo "==> lintmut (quick mutation subset; CI runs the full set)"
(cd tools/analyzers && go run ./cmd/lintmut -root "$root" -quick)

echo "lint OK"

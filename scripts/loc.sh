#!/bin/sh
# loc.sh — print the repository's non-test and test Go line counts.
#
# Usage: scripts/loc.sh
#
# Counts the lines of every tracked .go file, split by the _test.go
# suffix, with the same `git ls-files '*.go'` listing CHANGES.md cites.
# Informational only: it never fails on a count.
set -eu

cd "$(git rev-parse --show-toplevel)"
nontest=$(git ls-files '*.go' | grep -v '_test\.go$' | xargs cat | wc -l)
tests=$(git ls-files '*.go' | grep '_test\.go$' | xargs cat | wc -l)
echo "non-test Go lines: $nontest"
echo "test Go lines:     $tests"

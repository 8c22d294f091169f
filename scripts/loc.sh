#!/bin/sh
# loc.sh — print the repository's non-test and test Go line counts.
#
# Usage: scripts/loc.sh
#
# Counts the lines of every .go file present in the work tree that git
# tracks or does not ignore, split by the _test.go suffix. Tracked files
# deleted from the work tree are left out and new untracked ones are
# counted, so the figures match the tree as it stands, committed or not.
# Informational only: it never fails on a count.
set -eu

cd "$(git rev-parse --show-toplevel)"
files=$(git ls-files --cached --others --exclude-standard '*.go' | sort -u |
    while IFS= read -r f; do [ -f "$f" ] && printf '%s\n' "$f"; done)
count() { printf '%s\n' "$files" | grep $1 '_test\.go$' | xargs cat | wc -l; }
echo "non-test Go lines: $(count -v)"
echo "test Go lines:     $(count '')"

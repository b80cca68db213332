#!/usr/bin/env bash
# Non-test Go line count, the size measure every PR states:
#
#   scripts/loc.sh [REV] [DIR]
#
# Counts the lines of every .go file that is not a _test.go file and
# is not under bench/ — in the working tree (tracked files plus
# untracked, non-ignored ones; a tracked file deleted from the working
# tree counts as gone), or, given REV, in that commit. DIR
# narrows the count to one subtree (e.g. internal/tsr); pass . as REV
# to narrow the working tree. The net delta of a change is the
# difference of two runs:
#
#   scripts/loc.sh HEAD~1 internal/tsr; scripts/loc.sh . internal/tsr
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
rev=${1:-.}
dir=${2:-.}

keep() { grep '\.go$' | grep -v '_test\.go$' | grep -v '^bench/' || true; }

if [ "$rev" = . ]; then
	git ls-files --cached --others --exclude-standard -- "$dir" | keep |
		while read -r f; do if [ -f "$f" ]; then cat "$f"; fi; done | wc -l
else
	git ls-tree -r --name-only "$rev" -- "$dir" | keep |
		while read -r f; do git show "$rev:$f"; done | wc -l
fi

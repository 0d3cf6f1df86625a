#!/usr/bin/env bash
# netlines.sh BASE — lines added, removed and net between BASE and the
# working tree, in three groups: non-test Go, test Go, and other files.
# vendor/ and internal/lint/testdata/ are excluded. Untracked files count
# only once staged (git add -A), as git diff sees them.
#
#   bash scripts/netlines.sh HEAD~1
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi

git diff --numstat --no-renames "$1" -- . ':!vendor/**' ':!internal/lint/testdata/**' |
	awk -F'\t' '
	$1 == "-" { next }  # binary file
	{
		g = "other"
		if ($3 ~ /_test\.go$/) g = "go-test"
		else if ($3 ~ /\.go$/) g = "go"
		add[g] += $1; del[g] += $2
	}
	END {
		printf "%-8s %8s %8s %8s\n", "group", "added", "removed", "net"
		n = split("go go-test other", gs, " ")
		for (i = 1; i <= n; i++) {
			g = gs[i]
			printf "%-8s %8d %8d %+8d\n", g, add[g], del[g], add[g] - del[g]
		}
	}'

#!/usr/bin/env bash
# Non-test Go lines outside benchmark/: in this tree, at a base commit, and
# the delta per directory — the "net LOC" a PR reports in CHANGES.md.
#
#   scripts/loc.sh              # base: merge-base of HEAD and main
#   BASE=4aeb63d scripts/loc.sh
#
# Physical lines of every .go file that is not *_test.go. "tree" is the
# working tree (tracked files plus new ones not ignored), so the numbers are
# right before the commit as well as after it. A directory is the first two
# path components; a testdata tree (lint fixtures) is listed on its own so
# it does not pass for product code.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
base=${BASE:-$(git merge-base HEAD main 2>/dev/null || git rev-parse HEAD)}

# git grep -c prints path:lines for the tree and rev:path:lines for a commit.
{
	git grep -c '' "$base" -- '*.go'
	git grep -c --untracked '' -- '*.go'
} | awk -F: -v base="$(git rev-parse --short "$base")" '
	{ side = NF == 3 ? "base" : "tree"; path = $(NF - 1) }
	path ~ /_test\.go$/ || path ~ /^benchmark\// { next }
	{
		if (match(path, /\/testdata\//))
			dir = substr(path, 1, RSTART + 8)
		else {
			n = split(path, part, "/")
			dir = n == 1 ? "." : n == 2 ? part[1] : part[1] "/" part[2]
		}
		seen[dir] = 1
		lines[side, dir] += $NF
		total[side] += $NF
	}
	END {
		printf "%-36s %8s %8s %8s\n", "directory", base, "tree", "delta"
		m = 0
		for (d in seen) names[++m] = d
		for (i = 1; i <= m; i++) for (j = i + 1; j <= m; j++)
			if (names[j] < names[i]) { t = names[i]; names[i] = names[j]; names[j] = t }
		for (i = 1; i <= m; i++) {
			d = names[i]
			printf "%-36s %8d %8d %+8d\n", d, lines["base", d], lines["tree", d], lines["tree", d] - lines["base", d]
		}
		printf "%-36s %8d %8d %+8d\n", "total", total["base"], total["tree"], total["tree"] - total["base"]
	}'

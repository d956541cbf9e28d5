#!/bin/sh
# Net non-test Go lines changed since a base commit, per package — the
# figure every CHANGES.md entry reports (ROADMAP aim 2).
#
#	ci/loc.sh <base-commit>
set -eu
base=${1:?usage: ci/loc.sh <base-commit>}
git diff --numstat "$base" -- '*.go' ':!*_test.go' | awk '
	{
		pkg = $3
		if (!sub("/[^/]*$", "", pkg)) pkg = "."
		add[pkg] += $1; del[pkg] += $2; adds += $1; dels += $2
	}
	END {
		for (pkg in add) printf "%-28s +%-5d -%-5d net %+d\n", pkg, add[pkg], del[pkg], add[pkg] - del[pkg] | "sort"
		close("sort")
		printf "%-28s +%-5d -%-5d net %+d\n", "total", adds, dels, adds - dels
	}'

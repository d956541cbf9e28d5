#!/bin/sh
# Exported field counts of the option structs callers configure — the knob
# count every CHANGES.md entry reports before → after (ROADMAP aim 2). Exits
# non-zero when a count rises above its ceiling in ci/knobs.max, so a new
# knob has to raise its ceiling in the same diff.
#
#	ci/knobs.sh	(from the repository root)
set -eu
count() { # <label> <file> <struct>
	awk -v label="$1" -v name="$3" '
		$0 ~ "^type " name " struct {" { in_struct = 1; next }
		in_struct && /^}/ { in_struct = 0 }
		in_struct && /^\t[A-Z]/ {
			decl = $0
			sub(/[ \t]*\/\/.*$/, "", decl)
			sub(/^\t/, "", decl)
			sub(/[ \t]+[^ \t,]+$/, "", decl) # drop the type, keep the name list
			n += split(decl, names, ",")
		}
		END { printf "%-24s %d\n", label, n }' "$2"
}
{
	count dataloader.Options internal/dataloader/loader.go Options
	count tql.Options internal/tql/scan.go Options
	count core.WriteOptions internal/core/flush.go WriteOptions
	count transform.Options internal/transform/transform.go Options
} | awk '
	NR == FNR { max[$1] = $2; next }
	{
		print
		if (!($1 in max)) { printf "%s: no ceiling in ci/knobs.max\n", $1; bad = 1 }
		else if ($2 > max[$1]) { printf "%s: %d knobs, ceiling %d\n", $1, $2, max[$1]; bad = 1 }
	}
	END { exit bad }' ci/knobs.max -

#!/bin/sh
# Exported field counts of the option structs callers configure — the knob
# count every CHANGES.md entry reports before → after (ROADMAP aim 2).
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
count dataloader.Options internal/dataloader/loader.go Options
count tql.Options internal/tql/scan.go Options
count core.WriteOptions internal/core/flush.go WriteOptions
count deeplake.QueryOptions deeplake.go QueryOptions

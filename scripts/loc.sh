#!/bin/sh
# loc.sh — added, removed and net lines of Go against a base revision,
# split into non-test and test code and by top-level area: internal/,
# cmd/, examples/, bench/, and "other" for the rest (the root package's
# benchmarks). The working tree is compared, untracked Go files
# included, so the default BASE=HEAD reports uncommitted work; pass the
# parent commit to report a committed change. testdata/ fixtures are
# not counted.
#
# Usage: scripts/loc.sh [BASE]
set -eu

cd "$(dirname "$0")/.."

base=${1:-HEAD}
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
	echo "loc.sh: unknown revision $base" >&2
	exit 2
fi

{
	git diff --numstat --no-renames "$base" -- '*.go'
	git ls-files --others --exclude-standard -- '*.go' | while IFS= read -r f; do
		printf '%s\t0\t%s\n' "$(awk 'END { print NR }' "$f")" "$f"
	done
} | awk -F '\t' -v base="$base" '
$3 ~ /(^|\/)testdata\// { next }
{
	area = "other"
	if ($3 ~ /^internal\//) area = "internal/"
	else if ($3 ~ /^cmd\//) area = "cmd/"
	else if ($3 ~ /^examples\//) area = "examples/"
	else if ($3 ~ /^bench\//) area = "bench/"
	kind = ($3 ~ /_test\.go$/) ? "test" : "code"
	add[area, kind] += $1; del[area, kind] += $2
	add["total", kind] += $1; del["total", kind] += $2
}
END {
	printf "Go lines, working tree against %s\n", base
	printf "%-10s %27s   %27s\n", "", "non-test", "test"
	printf "%-10s %8s %8s %9s   %8s %8s %9s\n", "area", "added", "removed", "net", "added", "removed", "net"
	n = split("internal/ cmd/ examples/ bench/ other total", areas, " ")
	for (i = 1; i <= n; i++) {
		ar = areas[i]
		ca = add[ar, "code"] + 0; cd = del[ar, "code"] + 0
		ta = add[ar, "test"] + 0; td = del[ar, "test"] + 0
		printf "%-10s %8d %8d %+9d   %8d %8d %+9d\n", ar, ca, cd, ca - cd, ta, td, ta - td
	}
}'

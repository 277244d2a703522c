#!/bin/sh
# Counts code lines: for each package of the root module, the lines of
# its non-test Go files that are neither blank nor comment-only, then
# the total. A line inside a /* */ block counts as a comment; a line
# holding code and a trailing comment counts as code. benchmark/ is its
# own module and is not counted.
#
#   sh scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}
$GO list -f '{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}' ./... |
    while read -r pkg files; do
        [ -n "$files" ] || continue
        # shellcheck disable=SC2086 # one word per file path
        n=$(awk '
            { line = $0; sub(/^[ \t]+/, "", line); sub(/[ \t\r]+$/, "", line) }
            block { if (index(line, "*/")) block = 0; next }
            line == "" || line ~ /^\/\// { next }
            line ~ /^\/\*/ { if (!index(substr(line, 3), "*/")) block = 1; next }
            { n++ }
            END { print n + 0 }' $files)
        printf '%7d  %s\n' "$n" "$pkg"
    done |
    awk '{ print; total += $1 } END { printf "%7d  total\n", total }'

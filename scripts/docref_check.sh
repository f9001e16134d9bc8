#!/usr/bin/env sh
# docref_check.sh -- dangling doc reference gate.
#
# Every *.md path named in a Go comment must name a file that exists,
# resolved first relative to the commenting file's directory and then
# to the repository root: internal/stream/engine.go's README.md is
# internal/stream/README.md, and bench/main.go's bench/README.md is the
# root-relative path. A comment that sends the reader to a missing doc
# is worse than none.
#
# Run from the repository root: sh scripts/docref_check.sh
set -eu

cd "$(dirname "$0")/.."

git ls-files --cached --others --exclude-standard '*.go' | xargs awk '
function exists(path,    line, r) {
    r = (getline line < path)
    if (r >= 0) close(path)
    return r >= 0
}
FNR == 1 {
    dir = FILENAME
    if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
}
{
    i = index($0, "//")
    if (i == 0) next
    rest = substr($0, i)
    while (match(rest, /[A-Za-z0-9_.\/-]+\.md/)) {
        ref = substr(rest, RSTART, RLENGTH)
        rest = substr(rest, RSTART + RLENGTH)
        if (!exists(dir "/" ref) && !exists(ref)) {
            printf "FAIL: %s:%d cites %s, which does not exist\n", FILENAME, FNR, ref > "/dev/stderr"
            bad = 1
        }
    }
}
END {
    if (bad) exit 1
    print "doc references OK: every *.md path in a Go comment resolves"
}'

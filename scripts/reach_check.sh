#!/usr/bin/env sh
# reach_check.sh -- dead-code gate.
#
# The reproduction is what the commands print: every figure, table and
# feed comes out of a binary under cmd/, examples/ or bench/. A function
# under internal/ that none of those binaries links is code only its
# own tests run. This gate keeps such code from coming back:
#
#  1. Build every package main under cmd/ and examples/, plus the bench
#     module, with inlining off (-gcflags=all=-l) so that every function
#     a binary calls keeps its own symbol, and collect their `go tool nm`
#     names.
#
#  2. List the top-level func declarations of the non-test files under
#     internal/ and fail on any that no binary links, unless it is on
#     the allowlist below.
#
#  3. Fail on an allowlist entry that is no longer declared, or that a
#     binary now links: the allowlist holds only what is really dead.
#
# Names are compared as <package dir under internal/>.<Func> or
# <dir>.<Type>.<Method>, e.g. stats.Median or stream.QSketch.Add.
# nm prints generic instantiations with bracketed, space-containing
# type arguments (feeds.(*rows[go.shape.struct { ... }]).next); the
# balanced [...] groups are stripped before comparing.
#
# Run from the repository root: sh scripts/reach_check.sh
set -eu

cd "$(dirname "$0")/.."

# Each line: name, then a one-line reason it stays although no binary
# links it. Test hooks, and reference implementations a test compares
# a live path against.
allow=$(cat <<'EOF'
fault.Schedule                 test hook: arms an injector from a rule list in chaos tests
fault.Injector.Rules           test hook: chaos tests read back the armed rules
fault.Injector.Fired           test hook: chaos tests count the faults that fired
fault.IsInjected               test hook: chaos tests tell injected failures from real ones
stream.DoubleReleases          test hook: pool tests assert no buffer is released twice
stream.BufferPool.Rejected     test hook: pool tests count the buffers the pool refused
traffic.medianInPlace          reference: traffic tests compare median24 against it
core.BinMetrics                reference: bins_test.go compares AllBinMetrics against it
EOF
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# --- 1: link every binary and collect its symbols -----------------------
mains=$(go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./cmd/... ./examples/...)
i=0
for dir in $mains; do
    i=$((i + 1))
    go build -gcflags=all=-l -o "$tmp/bin$i" "$dir"
done
(cd bench && go build -gcflags=all=-l -o "$tmp/bench" .)

for bin in "$tmp"/bin* "$tmp/bench"; do
    go tool nm "$bin"
done |
    sed -n 's/^ *[0-9a-f]* [A-Za-z] repro\/internal\///p' |
    sed -e ':a' -e 's/\[[^][]*\]//' -e 'ta' -e 's/(\*\([^)]*\))/\1/g' |
    sort -u > "$tmp/linked"

# --- 2: every top-level func declared outside tests ---------------------
# A method is named after its receiver's base type: func (r *rows[T]) next
# declares rows.next.
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
    pkg=$(dirname "$f" | sed 's/^internal\///')
    grep -n '^func ' "$f" |
        sed -n \
            -e 's/^\([0-9]*\):func ([A-Za-z_0-9]* *\**\([A-Za-z_0-9]*\)[^)]*) \([A-Za-z_0-9]*\).*/\1 \2.\3/p' \
            -e 's/^\([0-9]*\):func \([A-Za-z_0-9]*\).*/\1 \2/p' |
        while read -r line name; do
            echo "$pkg.$name $f:$line"
        done
done | grep -v -e '\.init ' -e '\.main ' | sort -k1,1 > "$tmp/declared"

echo "$allow" | awk '{print $1}' | sort -u > "$tmp/allow"

fail=0

# Declared, unlinked and not allowed.
dead=$(awk 'NR == FNR { linked[$1] = 1; next } !($1 in linked) { print }' \
    "$tmp/linked" "$tmp/declared" |
    awk 'NR == FNR { ok[$1] = 1; next } !($1 in ok) { print $2 ": " $1 }' "$tmp/allow" -)
if [ -n "$dead" ]; then
    echo "FAIL: functions under internal/ that no binary links (delete them, or allowlist a test hook):" >&2
    echo "$dead" >&2
    fail=1
fi

# Allowlisted but gone.
stale=$(awk 'NR == FNR { decl[$1] = 1; next } !($1 in decl) { print }' "$tmp/declared" "$tmp/allow")
if [ -n "$stale" ]; then
    echo "FAIL: allowlist entries no longer declared under internal/:" >&2
    echo "$stale" >&2
    fail=1
fi

# Allowlisted but linked.
live=$(awk 'NR == FNR { linked[$1] = 1; next } $1 in linked { print }' "$tmp/linked" "$tmp/allow")
if [ -n "$live" ]; then
    echo "FAIL: allowlist entries that a binary now links (take them off the allowlist):" >&2
    echo "$live" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
n=$(wc -l < "$tmp/declared" | tr -d ' ')
echo "reach OK: $n functions under internal/; every one is linked by a binary or allowlisted"

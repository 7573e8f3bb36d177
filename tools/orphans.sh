#!/bin/sh
# The orphan ledger: every `pub fn` / `struct` / `enum` / `trait` / `const`
# defined in the library part of a file under crates/*/src (up to its first
# unindented `#[cfg(test)]` line, as in tools/loc.sh) whose name appears
# nowhere else outside a unit-test tail — not in library code under
# crates/, not in tests/, examples/ or benchmark/src. Such an item is
# called only by unit tests (its own file's, or another's as an oracle),
# if at all. Comments and `pub use` re-exports do not count as callers.
# Names on benchmark/README.md's frozen list are marked `frozen`: those
# stay until the benchmark is ported.
#
# The match is by name, so an orphan whose name is also used for something
# else (`new`, `len`, ...) is not listed: the ledger can miss orphans, but
# every entry it prints is one.
#
#   tools/orphans.sh        # from anywhere inside the repository
#
# POSIX sh + awk, no other dependencies.
set -eu
cd "$(dirname "$0")/.."

lib=$(find crates/*/src -name '*.rs' | LC_ALL=C sort)
all=$(find crates tests examples benchmark/src -name '*.rs' | LC_ALL=C sort)

# Pass 0 reads the frozen list, pass 1 the definitions, pass 2 every use.
# shellcheck disable=SC2086
awk '
    function idents(line, out) {
        sub(/\/\/.*/, "", line)
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        return split(line, out, " ")
    }
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }

    pass == 0 && /^## Frozen surface/ { frozen_section = 1 }
    pass == 0 && frozen_section && /^```/ { fences++; if (fences == 2) frozen_section = 0; next }
    pass == 0 && frozen_section && fences == 1 {
        n = idents($0, tok)
        for (i = 1; i <= n; i++) frozen[tok[i]] = 1
    }

    pass == 1 && !in_tests && /^[ \t]*pub (const |unsafe )?(fn|struct|enum|trait|const) / {
        line = $0
        sub(/^[ \t]*pub /, "", line)
        sub(/^(const|unsafe) fn /, "fn ", line)
        kind = line; sub(/ .*/, "", kind)
        name = line; sub(/^[a-z]+ /, "", name); sub(/[^A-Za-z0-9_].*/, "", name)
        defs++
        def_name[defs] = name; def_kind[defs] = kind; def_file[defs] = FILENAME
        def_at[FILENAME, FNR] = name
        defined[name] = 1
    }

    pass == 2 && /^[ \t]*pub use / { if (!/;/) in_reexport = 1; next }
    pass == 2 && in_reexport { if (/;/) in_reexport = 0; next }
    pass == 2 {
        n = idents($0, tok)
        skip = ((FILENAME, FNR) in def_at) ? def_at[FILENAME, FNR] : ""
        for (i = 1; i <= n; i++) {
            t = tok[i]
            if (!(t in defined)) continue
            if (t == skip) { skip = ""; continue }
            if (!(in_tests && FILENAME ~ /^crates\//)) uses[t]++
        }
    }

    END {
        for (d = 1; d <= defs; d++) {
            name = def_name[d]
            if (uses[name] > 0) continue
            mark = (name in frozen) ? "  frozen" : ""
            printf "%-6s  %-28s %s%s\n", def_kind[d], name, def_file[d], mark | "LC_ALL=C sort -b -k3,3 -k2,2"
            orphans++
            if (mark != "") frozen_orphans++
        }
        close("LC_ALL=C sort -b -k3,3 -k2,2")
        printf "%6d  orphans (%d frozen)\n", orphans, frozen_orphans
    }' pass=0 benchmark/README.md pass=1 $lib pass=2 $all

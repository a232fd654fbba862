#!/usr/bin/env bash
# Reachability audit for the workspace's public surface.
#
# Inside a workspace `pub` silences rustc's dead_code lint, so a public
# item nothing calls is never flagged. This script lists every
#
#   pub fn|struct|enum|trait|type|const|static|mod NAME
#
# under crates/*/src (binaries under src/bin excluded) whose NAME has no
# whole-word reference outside its own file. Callers are the other files
# under crates/*/src (binaries included) and benchmark/src. Tests
# (tests/, crates/*/tests), comment lines and `pub use` re-export lines
# are not callers.
#
# The list must equal the keys of scripts/pub_audit.allow, one
# `path name  # reason` line per item. An item missing from the allowlist
# fails the audit, and so does an allowlist line whose item is no longer
# reported. Fix the first by demoting or deleting the item (or by adding
# a line with its reason); fix the second by deleting the line.

set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW=scripts/pub_audit.allow

# One `CALLER path` line per file that may call into the library crates,
# followed by one `ITEM path name` line per public item.
report() {
    {
        find crates/*/src benchmark/src -name '*.rs' | sort | sed 's/^/CALLER /'
        find crates/*/src -name '*.rs' -not -path '*/src/bin/*' | sort | sed 's/^/ITEM /'
    } | awk '
        $1 == "CALLER" {
            file = $2
            in_use = 0
            while ((getline line < file) > 0) {
                # A `pub use` re-export (single line or brace block) only
                # renames; it does not call.
                if (in_use) { if (line ~ /;/) in_use = 0; continue }
                if (line ~ /^[ \t]*pub(\([a-z]+\))? use /) {
                    if (line !~ /;/) in_use = 1
                    continue
                }
                if (line ~ /^[ \t]*\/\//) continue
                gsub(/[^A-Za-z0-9_]+/, " ", line)
                n = split(line, words, " ")
                for (i = 1; i <= n; i++) {
                    w = words[i]
                    if (!((w, file) in seen)) {
                        seen[w, file] = 1
                        files[w] = files[w] SUBSEP file
                    }
                }
            }
            close(file)
            next
        }
        $1 == "ITEM" {
            file = $2
            while ((getline line < file) > 0) {
                if (!match(line, /^[ \t]*pub ((const|unsafe|async) )*(fn|struct|enum|trait|type|const|static|mod) [A-Za-z_][A-Za-z0-9_]*/))
                    continue
                decl = substr(line, RSTART, RLENGTH)
                k = split(decl, parts, " ")
                name = parts[k]
                if ((file, name) in done) continue
                done[file, name] = 1
                n = split(files[name], where, SUBSEP)
                reached = 0
                for (i = 1; i <= n; i++)
                    if (where[i] != "" && where[i] != file) { reached = 1; break }
                if (!reached) print file, name
            }
            close(file)
        }
    ' | sort
}

found=$(report)
allowed=$(grep -vE '^[[:space:]]*(#|$)' "$ALLOW" | awk '{print $1, $2}' | sort)

# Every allowlist line must carry a reason after `#`.
if bad=$(grep -vE '^[[:space:]]*(#|$)' "$ALLOW" | grep -vE '^[^ ]+ [^ ]+ +# +[^ ]'); then
    echo "pub audit: allowlist lines without a reason:" >&2
    echo "$bad" >&2
    exit 1
fi

new=$(comm -23 <(echo "$found") <(echo "$allowed"))
stale=$(comm -13 <(echo "$found") <(echo "$allowed"))
if [ -n "$new" ] || [ -n "$stale" ]; then
    if [ -n "$new" ]; then
        echo "pub audit: public items nothing outside their file reaches" >&2
        echo "(demote or delete them, or add a justified line to $ALLOW):" >&2
        echo "$new" | sed 's/^/  /' >&2
    fi
    if [ -n "$stale" ]; then
        echo "pub audit: stale $ALLOW lines (the item is gone or now has a caller):" >&2
        echo "$stale" | sed 's/^/  /' >&2
    fi
    exit 1
fi
echo "pub audit passed ($(echo "$found" | grep -c . || true) allowlisted items)"

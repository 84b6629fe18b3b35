#!/bin/sh
# Size tracking (ROADMAP aim 2: net lines of code and the configuration
# surface are tracked numbers, preferred direction down).
#
#   sh scripts/size.sh [BASE]    write BENCH_size.json: the working tree
#                                ("after") beside the commit the PR grows
#                                from ("before": BASE, by default HEAD~1 —
#                                pass HEAD when the change is not committed)
#   sh scripts/size.sh --check   print the working tree's numbers and fail
#                                unless env_read_sites = 1 and env_knobs <= 14
#
# rust_loc_src    lines of *.rs under crates/*/src
# rust_loc_total  lines of every *.rs in the tree (target directories aside)
# env_knobs       distinct DBGW_* names Config accepts (the SETTINGS table of
#                 crates/cgi/src/config.rs; in a tree from before Config, the
#                 distinct DBGW_* names under crates/*/src)
# env_read_sites  files under crates/*/src and examples/ that contain both
#                 `env::var` (var, var_os, vars, vars_os) and a string literal
#                 opening with DBGW_ — however the two are laid out, and
#                 whether the read is direct or through a closure
set -eu

cd "$(dirname "$0")/.."

# measure <tree>: print the four numbers as the inside of a JSON object.
measure() {
    (
        cd "$1"
        loc_src=$(find crates/*/src -name '*.rs' -exec cat {} + | wc -l)
        loc_total=$(find . -name '*.rs' -not -path '*/target/*' -not -path './.bench_build/*' \
            -exec cat {} + | wc -l)
        config=crates/cgi/src/config.rs
        if [ -f "$config" ]; then
            knobs=$(sed -n '/^const SETTINGS/,/^];/p' "$config" \
                | grep -oE '"DBGW_[A-Z0-9_]+"' | sort -u | wc -l)
        else
            knobs=$(grep -rhoE 'DBGW_[A-Z0-9_]+' crates/*/src | sort -u | wc -l)
        fi
        sites=$(grep -rl 'env::var' crates/*/src examples | xargs -r grep -l '"DBGW_' | wc -l)
        printf '"rust_loc_src": %d, "rust_loc_total": %d, "env_knobs": %d, "env_read_sites": %d' \
            "$loc_src" "$loc_total" "$knobs" "$sites"
    )
}

after=$(measure .)

if [ "${1:-}" = "--check" ]; then
    echo "{ $after }"
    knobs=$(echo "$after" | sed 's/.*"env_knobs": \([0-9]*\).*/\1/')
    sites=$(echo "$after" | sed 's/.*"env_read_sites": \([0-9]*\).*/\1/')
    [ "$sites" -eq 1 ] || { echo "size: DBGW_* is read at $sites sites, not 1"; exit 1; }
    [ "$knobs" -le 14 ] || { echo "size: Config accepts $knobs names, more than 14"; exit 1; }
    exit 0
fi

base=$(git rev-parse --short "${1:-HEAD~1}")
BEFORE_TMP=$(mktemp -d)
trap 'rm -rf "$BEFORE_TMP"' EXIT
git archive "$base" | tar -x -C "$BEFORE_TMP"
before=$(measure "$BEFORE_TMP")

cat > BENCH_size.json <<EOF
{
  "before": { "commit": "$base", $before },
  "after": { $after }
}
EOF
cat BENCH_size.json

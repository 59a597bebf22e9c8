#!/usr/bin/env bash
# Fails when code outside the frozen benchmark crate uses a shim that
# exists only because that crate still does: `par::fusion_enabled`,
# `par::tier_enabled`, `par::with_threads`, a driver config's unread
# `fusion` field (read as `.fusion`), or `DistPpoConfig`'s unread
# `overlap` / `act_server` fields (read as `.overlap`, or spelled in a
# struct literal: `overlap: …`, or `{ overlap, … }`). The allowed
# mentions are the shims' definitions in crates/msrl-tensor/src/par.rs
# and the two fields' declarations and `Default` values in
# crates/msrl-runtime/src/config.rs. Comment lines are skipped and string
# literals blanked, so a span named "comm.overlap" is no read.
#
#   bash .github/scripts/frozen-shims.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."

word='([^_[:alnum:]]|$)'
fields='(overlap|act_server)'
shims="(^|[^_[:alnum:]])(fusion_enabled|tier_enabled|with_threads)$word"
shims+="|\\.(fusion|overlap|act_server)$word"
shims+="|(^|[^_[:alnum:].])$fields[[:space:]]*:([^:]|$)"
shims+="|[{,][[:space:]]*$fields[[:space:]]*[,}]"
hits=$(find crates/*/src crates/*/tests crates/*/benches tests examples -name '*.rs' -print0 2>/dev/null \
    | xargs -0 grep -nE "$shims" \
    | sed -E 's/"([^"\\]|\\.)*"/""/g' \
    | grep -E "$shims" \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
    | grep -vE '^crates/msrl-tensor/src/par\.rs:[0-9]+:pub fn (fusion_enabled|tier_enabled|with_threads)\b' \
    | grep -vE '^crates/msrl-runtime/src/config\.rs:[0-9]+:[[:space:]]*(pub overlap: bool|pub act_server: bool|overlap: true|act_server: false),$' \
    || true)

if [ -n "$hits" ]; then
    echo "frozen-ledger shims gained callers (they go with ROADMAP item 2(d)):" >&2
    echo "$hits" >&2
    exit 1
fi
echo "frozen-ledger shims: no callers outside benchmark/"

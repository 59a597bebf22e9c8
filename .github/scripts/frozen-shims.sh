#!/usr/bin/env bash
# Fails when code outside the frozen benchmark crate uses a shim that
# exists only because that crate still does: `par::fusion_enabled`,
# `par::tier_enabled`, `par::with_threads`, or a driver config's unread
# `fusion` field (read as `.fusion`). Their definitions in
# crates/msrl-tensor/src/par.rs are the only allowed mentions; comment
# lines are skipped.
#
#   bash .github/scripts/frozen-shims.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."

shims='(^|[^_[:alnum:]])(fusion_enabled|tier_enabled|with_threads)([^_[:alnum:]]|$)|\.fusion([^_[:alnum:]]|$)'
hits=$(find crates/*/src crates/*/tests crates/*/benches tests examples -name '*.rs' -print0 2>/dev/null \
    | xargs -0 grep -nE "$shims" \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
    | grep -vE '^crates/msrl-tensor/src/par\.rs:[0-9]+:pub fn (fusion_enabled|tier_enabled|with_threads)\b' \
    || true)

if [ -n "$hits" ]; then
    echo "frozen-ledger shims gained callers (they go with ROADMAP item 2(d)):" >&2
    echo "$hits" >&2
    exit 1
fi
echo "frozen-ledger shims: no callers outside benchmark/"

#!/usr/bin/env bash
# Fails when the `MSRL_*` variables the crates name differ from the rows
# of README.md's "Environment variables" table.
#
#   bash .github/scripts/env-var-table.sh
#
# A variable is a string literal "MSRL_..." in a source file under
# crates/*/src, read up to the file's first `#[cfg(test)]`: a test module
# may name a variable only to show that it is ignored.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."

in_code=$(find crates/*/src -name '*.rs' -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print }' \
    | grep -oE '"MSRL_[A-Z_0-9]+"' | tr -d '"' | sort -u)
in_table=$(awk '/^### Environment variables/ { t = 1; next } t && /^##/ { exit } t' README.md \
    | grep -oE '^\| `MSRL_[A-Z_0-9]+`' | tr -d '|` ' | sort -u)

if [ "$in_code" != "$in_table" ]; then
    echo "README's environment-variable table and the crates disagree:" >&2
    diff <(echo "$in_table") <(echo "$in_code") | sed -n 's/^< /  only in the table: /p; s/^> /  only in the code:  /p' >&2
    exit 1
fi
echo "env-var table: $(echo "$in_code" | wc -l) variables, table and code agree"

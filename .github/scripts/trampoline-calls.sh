#!/usr/bin/env bash
# Disassembly guard for the lane-kernel trampolines (msrl_tensor::lanes).
#
# Every kernel body is generic over a lane type and always inlined into
# one `#[target_feature]` trampoline instance per ISA (`on_avx512`,
# `on_avx2`). Inside an instance every `f32::mul_add` must be a `vfmadd`
# and every trait method and intrinsic inlined: a call out of an instance
# means a libm `fmaf` per step or a helper compiled without the ISA's
# features (the same bits, many times slower). This script disassembles
# the release rlibs that instantiate the trampolines (`msrl_tensor`'s
# kernels and `msrl_algos`' health sentinel) and fails if
#   * no trampoline instance is found (the check would pass vacuously), or
#   * an instance calls (or tail-jumps to) anything but a panic path,
#     libm `logf` (the log-softmax rows' one `ln` a row, which has no
#     polynomial) or `memset`.
#
# Usage: .github/scripts/trampoline-calls.sh [rlib ...]
# (default: the newest target/release/deps/libmsrl_{tensor,algos}-*.rlib,
# so stale builds left in the target directory are skipped; build with
# `cargo build --release` first).
set -euo pipefail

rlibs=("$@")
if [ ${#rlibs[@]} -eq 0 ]; then
    for crate in tensor algos; do
        rlibs+=("$(ls -t target/release/deps/libmsrl_"$crate"-*.rlib | head -n 1)")
    done
fi

status=0
for rlib in "${rlibs[@]}"; do
    [ -f "$rlib" ] || { echo "no rlib at $rlib (build with cargo build --release)" >&2; exit 1; }
    objdump -d -r -C --no-show-raw-insn "$rlib" | awk -v rlib="$rlib" '
        # The 64-bit register a register name is part of ("r12d" -> "r12",
        # "ebx" -> "rbx").
        function base(r) {
            sub(/^\*?%/, "", r)
            if (r ~ /^r[0-9]+[dwb]?$/) { sub(/[dwb]$/, "", r); return r }
            if (r ~ /^[re]?[abcd]x$/ || r ~ /^[abcd]l$/) return "r" substr(r, length(r) - 1, 1) "x"
            sub(/^[re]/, "", r); sub(/l$/, "", r)
            return "r" r
        }
        # A function header: "<address> <name>:".
        /^[0-9a-f]+ <.*>:$/ {
            name = substr($0, index($0, "<") + 1)
            sub(/>:$/, "", name)
            inside = name ~ /^msrl_tensor::lanes::on_avx(512|2)(<|$)/
            if (inside) instances[name]++
            pending = 0
            split("", slot)
            next
        }
        !inside { next }
        # A register loaded from a symbol'"'"'s GOT slot: the relocation on the
        # next line names the symbol a later "call *%reg" calls (the
        # compiler hoists the load out of a loop of calls).
        pending == 3 && /R_X86_64_/ {
            sub(/.*R_X86_64_[A-Z0-9]+[ \t]+/, ""); sub(/[-+]0x[0-9a-f]+$/, "")
            slot[loaded] = $0
            pending = 0
            next
        }
        pending == 3 { pending = 0 }
        # Any other write to a register forgets what it held; a call
        # clobbers the caller-saved ones.
        /^ +[0-9a-f]+:\t/ && !/\tcall/ {
            line = $0; sub(/ *#.*/, "", line)
            n = split(line, ops, ","); dest = ops[n]; sub(/.*[ \t]/, "", dest)
            if (dest ~ /^%/) delete slot[base(dest)]
            if (line ~ /\tmov +0x0\(%rip\),%[a-z0-9]+$/) { pending = 3; loaded = base(dest); next }
        }
        /\tcall/ {
            split("rax rcx rdx rsi rdi r8 r9 r10 r11", clobbered, " ")
            reg = $NF
            if (reg ~ /^\*%/ && base(reg) in slot) {
                target = slot[base(reg)]
                for (i in clobbered) delete slot[clobbered[i]]
                pending = 4
            } else {
                for (i in clobbered) delete slot[clobbered[i]]
                pending = 1; target = $0; next
            }
        }
        # A call, or a jump that leaves the function (a tail call: its
        # target is relocated), then the relocation line naming it.
        /\tjmp/ { pending = 2; target = $0; next }
        pending == 2 && !/R_X86_64_/ { pending = 0 }
        pending < 4 && pending && /R_X86_64_/ {
            sub(/.*R_X86_64_[A-Z0-9]+[ \t]+/, ""); sub(/[-+]0x[0-9a-f]+$/, "")
            target = $0
        }
        pending {
            pending = 0
            if (target ~ /panic|_fail|unwrap_failed|expect_failed|assert_failed/) next
            if (target ~ /^logf(@|$)/) next
            # A fill the compiler substitutes for a loop of zero stores
            # (the output of a product with k = 0): no arithmetic.
            if (target ~ /^memset(@|$)/) next
            printf "%s: %s calls %s\n", rlib, name, target
            bad++
        }
        END {
            n = 0
            for (i in instances) n += instances[i]
            if (n == 0) { printf "%s: no trampoline instance found\n", rlib; exit 1 }
            printf "%s: %d trampoline instances, %d disallowed calls\n", rlib, n, bad + 0
            exit bad > 0
        }
    ' || status=1
done
exit $status

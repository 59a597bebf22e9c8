//! Packed, register-tiled matmul microkernels and gathered reductions —
//! the only bodies [`crate::ops`] executes.
//!
//! The naive matmul ([`crate::reference::matmul`], kept as the test
//! oracle) streams `b` row by row and accumulates directly into the
//! output, which bounds it at one scalar fused multiply–add per element
//! per pass. The kernels here restructure the
//! *memory layout and instruction schedule only*: `b` is packed once
//! into [`PackedB`] column panels ([`NR`][PackedB::nr] columns wide,
//! k-major within each panel, zero-padded at the right edge), and the
//! microkernel holds an `MR × NR` accumulator tile in registers while
//! sweeping `k`.
//!
//! # Why the results are bit-identical to the naive kernel
//!
//! Every output element `out[i][j]` is produced by exactly the
//! computation the naive kernel performs for it: one accumulator
//! initialised to `0.0`, then `acc = fma(a[i][kk], b[kk][j], acc)` for
//! `kk` ascending — one fused multiply–add, the exact product added and
//! the sum rounded once — no reordering, no zero-skipping (IEEE requires
//! `0 × NaN` and `0 × ∞` to contaminate the accumulator). Register
//! tiling changes *which elements are in flight together*, not the
//! per-element operation sequence, and packing changes where `b[kk][j]`
//! is read from, not its value.
//!
//! The fused step is one IEEE operation with one correctly rounded
//! result, so every spelling of it agrees on every target:
//! `_mm512_fmadd_ps`, `_mm256_fmadd_ps`, the scalar `vfmadd` that
//! `f32::mul_add` becomes inside a feature-enabled function, and the
//! libm `fmaf` it becomes elsewhere. No body here keeps the unfused
//! `acc + a * b` (two roundings, a different number), and nothing
//! selects between the two — `every_product_body_is_fused` feeds every
//! body inputs on which they differ in the last bit. What a host pays
//! without an FMA unit is speed, not bits: [`select`] gives it the
//! portable bodies, whose `mul_add` is then a software `fmaf` call per
//! element.
//!
//! The partial right-edge panel rests on the same fact — lanes hold
//! *different* output elements, never partial sums of one. It runs the
//! full-panel accumulator loop over its zero padding, so a padded lane
//! accumulates `a[i][kk] × 0`, which is NaN whenever `a` holds a NaN or
//! an ∞. That value lives and dies in the padded lane's own
//! accumulator: no real lane reads it, and the store writes only the
//! `w` real lanes. A poisoned operand therefore reaches exactly the
//! outputs the naive loop poisons, and nothing past the last real
//! column of a row is touched.
//!
//! # Kernel families
//!
//! Selected once per process by runtime CPU-feature detection
//! ([`select`]), no compile-time target flags required:
//!
//! * **AVX-512** — 8×32 tiles: 16 zmm accumulators plus 2 panel
//!   registers, `_mm512_fmadd_ps` (two ports × 16 lanes × 2 flop a
//!   cycle, twice what the multiply-then-add pair could retire).
//! * **AVX2** — 4×32 tiles on ymm registers, `_mm256_fmadd_ps`; chosen
//!   only when the host reports `fma` beside `avx2`.
//! * **Portable** — 4×16 tiles in plain arrays and `f32::mul_add`; safe
//!   Rust that the autovectorizer handles on any architecture.
//!
//! A right-edge panel narrow enough for one vector (`w ≤ 16` / `8`
//! columns) keeps one accumulator per row instead of the panel's two or
//! four. Row remainders (`m % MR`) run through a shared scalar edge loop
//! with the same per-element accumulation order. A whole product narrower
//! than one vector never reaches the tile: it runs on row lanes (below).
//!
//! # Row lanes: outputs narrower than a vector
//!
//! An output `n < L` columns wide (`L` = [`MatKernel::lanes`]: 16 zmm,
//! 8 ymm, 16 portable) — every policy and value head — would use `n` of
//! a column vector's `L` lanes. So the lanes turn to run across `L`
//! *output rows*. Each `L × L` block of `a` is transposed in registers
//! (row pieces 128 bits at a time, four rows to a register, then a
//! 4 × 4 transpose inside each 128-bit lane), and column `c` takes
//! `t[kk] × b[kk][c]`, `b[kk][c]` broadcast, for `kk` ascending: at
//! stride `n` from a row-major `b`, at stride `nr` from a panel. Both row
//! kernels use them — the packed tile for a narrow `n`, the unpacked row
//! kernel for its `n mod L` right edge — and `crate::ops` never packs a
//! row-major operand for a narrow product: the rule keys on the
//! operand's width, not on [`crate::ops::PACK_MIN_FLOPS`]. Lanes hold
//! different output elements, each with its one accumulator and one
//! fused multiply–add a step, so the argument above holds unchanged; a
//! partial block (a ragged last row group, `k mod L`) is read through a
//! zero-padded copy, and lanes past the last real row are never stored.
//!
//! # `a × bᵀ` is a pack layout, not a kernel
//!
//! Input gradients are `g · wᵀ`. [`pack_bt`] fills the same panels
//! straight from the rows of the `[n, k]` operand — panel element
//! `(kk, c)` is `b[(j0 + c)·k + kk]`, no intermediate transpose — and
//! the one tile kernel runs on them.
//!
//! # Unpacked row kernels
//!
//! Packing pays off when the panel is reused across many output rows.
//! For the small products a rollout is full of (a handful of
//! observation rows × a hidden layer), [`matmul_simd_rows`] instead
//! vectorises the naive loop *across output columns* directly on the
//! row-major operand — its `n mod L` right edge on row lanes — and
//! [`matmul_at_rows`] does the same for `aᵀ × b`: each output element
//! still gets its own accumulator swept over `k` ascending with one
//! fused multiply–add a step, so the results stay bit-identical.
//!
//! ## The `aᵀ × b` kernel: reduction blocks and row lanes
//!
//! Weight gradients are `xᵀ · g` with the batch as the reduction axis:
//! `p` is 2,048 to 25,600 rows while the output is at most a few
//! hundred elements a side, and for policy/value heads only 1–6
//! columns wide. [`matmul_at_rows`] has one shape for all of it:
//!
//! * **Reduction blocks.** The sweep over `p` is cut into blocks of
//!   [`AT_BLOCK`] rows, outermost. Within a block every output tile
//!   re-reads the same `AT_BLOCK` rows of `a` and `b` from cache;
//!   between blocks the tile's partial sums live in `out` (the first
//!   block starts every accumulator from `0.0` — `out` is overwritten,
//!   never accumulated into — and later blocks reload it). Both
//!   operands therefore stream from memory once, where an unblocked
//!   sweep streamed them once per 4-row output tile. A caller that
//!   holds the reduction axis in pieces (a learner differentiating a
//!   tall batch in row blocks) passes `carried` with every piece after
//!   the first: the first block then reloads `out` like the others, and
//!   the pieces are one sweep.
//! * **Column lanes.** The `n − n mod L` leading columns run on the
//!   packed kernel's register tile — the same accumulator loop, fed
//!   `b`'s row-major rows instead of a panel and `a`'s columns instead
//!   of its rows: `MR` output rows × 32 columns (8×2 zmm, 4×4 ymm),
//!   `b[kk][j..j + 32]` loaded once and each `a[kk][i]` broadcast. A
//!   fused multiply–add waits four cycles for its accumulator and two
//!   issue per cycle, so a tile needs eight independent accumulators to
//!   keep both ports busy; the 4 × `L` tile this replaces had four and
//!   ran at the latency of its own dependency chains. Whole vectors
//!   left past the last 32-column block take the tile one vector wide
//!   (the portable body is 4 × 16 arrays throughout, like its packed
//!   tile). Tiles are visited column block by column block, so `b`'s
//!   strip of the reduction block stays in L1 while `a`'s block is
//!   re-read from L2 — `n / 32` passes over it.
//! * **Row lanes.** The `n mod L` right-edge columns — all of `n` for a
//!   2- or 6-wide head — turn the tile around: lanes run across `L`
//!   *output rows*, which are contiguous in `a`'s row `kk`, and
//!   `b[kk][j]` is the broadcast. The tile is held transposed and
//!   scattered into `out`'s column at the end of each block. Fewer than
//!   `L` leftover rows under those columns take a scalar loop.
//!
//! None of this touches the bit-identity argument above. An output
//! element still has exactly one accumulator; it still receives
//! `a[kk][i] × b[kk][j]` for `kk = 0, 1, …, p − 1` in that order, each
//! by one fused multiply–add; and parking the accumulator in `out`
//! between blocks is a store and a load of the same `f32`, which
//! changes no bit of it. Blocking alters *when* an element's next
//! product arrives, the tile's width and row lanes alter *which
//! neighbours* share its registers, nothing else.

use std::sync::OnceLock;

/// Which microkernel family [`select`] chose for this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatKernel {
    /// 8×32 zmm register tiles (`avx512f`, which includes FMA).
    Avx512,
    /// 4×32 ymm register tiles (`avx2` and `fma`).
    Avx2,
    /// 4×16 array tiles, safe portable Rust.
    Portable,
}

impl MatKernel {
    /// The family's vector width in `f32` lanes (16 zmm, 8 ymm, 16
    /// portable). A product whose output is narrower than this runs on
    /// row lanes (module docs), whatever its size.
    pub fn lanes(self) -> usize {
        match self {
            MatKernel::Avx512 | MatKernel::Portable => 16,
            MatKernel::Avx2 => 8,
        }
    }
}

/// Whether this host can run the ymm bodies: their products are
/// `vfmadd`, so `avx2` alone is not enough. The one predicate behind
/// [`select`] and behind every test that calls a ymm body by name.
#[cfg(target_arch = "x86_64")]
pub(crate) fn has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Returns the microkernel family for this host, detected once.
pub fn select() -> MatKernel {
    static KERNEL: OnceLock<MatKernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return MatKernel::Avx512;
            }
            if has_avx2_fma() {
                return MatKernel::Avx2;
            }
        }
        MatKernel::Portable
    })
}

/// `b` repacked into column panels for the selected microkernel.
///
/// Panel `p` covers output columns `p*nr .. (p+1)*nr` and stores them
/// k-major: element `(kk, c)` of the panel is `b[kk][p*nr + c]`. The
/// final panel is zero-padded on the right; the tile computes the
/// padded lanes like any other and stores only the real ones (see the
/// module docs), so padding cannot perturb results.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedB {
    data: Vec<f32>,
    k: usize,
    n: usize,
    nr: usize,
    kernel: MatKernel,
}

impl PackedB {
    /// Rows of the packed matrix (`b.shape()[0]`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the packed matrix (`b.shape()[1]`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Panel width in columns.
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// Packed storage footprint in elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the packed matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Consumes the pack, returning its panels to the thread-local
    /// buffer pool they were drawn from ([`crate::alloc`]) — what keeps
    /// a per-call pack from allocating in steady state.
    pub fn recycle(self) {
        crate::alloc::give(self.data);
    }
}

/// Packs a row-major `[k, n]` matrix into [`PackedB`] panels for this
/// host's microkernel. Cost is one copy of `b`, paid once per weight by
/// a promoted plan (or once per call for ad-hoc large products); the
/// microkernel then reads panels sequentially.
///
/// # Panics
///
/// Panics when `bd` is shorter than `k × n`.
pub fn pack_b(bd: &[f32], k: usize, n: usize) -> PackedB {
    pack_for(select(), bd, k, n, false)
}

/// As [`pack_b`], but from the transposed operand: `bd` is the row-major
/// `[n, k]` matrix whose *rows* are the right operand's columns, and
/// panel element `(kk, c)` is `bd[(p*nr + c)·k + kk]`. The panels are
/// the ones `pack_b` builds from the materialised transpose, so `a × bᵀ`
/// is this layout plus the one tile kernel.
///
/// # Panics
///
/// Panics when `bd` is shorter than `n × k`.
pub fn pack_bt(bd: &[f32], k: usize, n: usize) -> PackedB {
    pack_for(select(), bd, k, n, true)
}

/// Packs for a named tile family. Private: [`matmul_packed_rows`] runs
/// the family a pack records, so only [`select`]'s answer (or, in tests,
/// a family whose CPU feature was just detected) may be passed.
fn pack_for(kernel: MatKernel, bd: &[f32], k: usize, n: usize, transposed: bool) -> PackedB {
    assert!(bd.len() >= k * n, "pack: operand extents");
    msrl_telemetry::static_counter!("tensor.pack_b").add(1);
    let nr = match kernel {
        MatKernel::Avx512 | MatKernel::Avx2 => 32,
        MatKernel::Portable => 16,
    };
    // Zeroed, not merely pooled: the right-edge padding is multiplied.
    let mut data = crate::alloc::take_zeroed(n.div_ceil(nr) * k * nr);
    for p in 0..n.div_ceil(nr) {
        let j0 = p * nr;
        let w = nr.min(n - j0);
        let panel = &mut data[p * k * nr..(p + 1) * k * nr];
        if transposed {
            // A cache line of each source row at a time, so the block's
            // panel rows stay in L1 while every column visits them.
            for kk0 in (0..k).step_by(16) {
                let kk1 = (kk0 + 16).min(k);
                for c in 0..w {
                    let col = &bd[(j0 + c) * k + kk0..(j0 + c) * k + kk1];
                    for (row, &v) in panel[kk0 * nr..kk1 * nr].chunks_exact_mut(nr).zip(col) {
                        row[c] = v;
                    }
                }
            }
        } else {
            for kk in 0..k {
                panel[kk * nr..kk * nr + w].copy_from_slice(&bd[kk * n + j0..kk * n + j0 + w]);
            }
        }
    }
    PackedB { data, k, n, nr, kernel }
}

/// Computes rows `row0..row0 + out_rows.len()/n` of `a × b` into
/// `out_rows` from the packed representation of `b`, overwriting every
/// element (the buffer need not be zeroed). Bit-identical to the naive
/// kernel; the signature mirrors [`matmul_simd_rows`] so callers
/// partition output rows across threads the same way.
///
/// # Panics
///
/// Panics when `bp` was not packed from a `[k, n]` matrix, `out_rows`
/// is not whole rows or `ad` ends before the last of them — the x86
/// bodies index unchecked.
pub fn matmul_packed_rows(
    ad: &[f32],
    row0: usize,
    out_rows: &mut [f32],
    k: usize,
    n: usize,
    bp: &PackedB,
) {
    if n == 0 || out_rows.is_empty() {
        return;
    }
    assert!(
        (bp.k, bp.n) == (k, n)
            && out_rows.len().is_multiple_of(n)
            && ad.len() >= (row0 + out_rows.len() / n) * k,
        "matmul_packed_rows: operand extents"
    );
    let a = &ad[row0 * k..];
    #[cfg(target_arch = "x86_64")]
    {
        match bp.kernel {
            // SAFETY: `pack_for` only records these variants after
            // runtime detection of the corresponding CPU feature; the
            // assert above and the pack's own length (`panels × k × nr`,
            // private) bound every index the bodies form.
            MatKernel::Avx512 => unsafe {
                x86::tile_avx512(a, k, &bp.data, out_rows, n);
                return;
            },
            MatKernel::Avx2 => unsafe {
                x86::tile_avx2(a, k, &bp.data, out_rows, n);
                return;
            },
            MatKernel::Portable => {}
        }
    }
    tile_portable(a, k, &bp.data, out_rows, n);
}

/// Computes rows `row0..row0 + out_rows.len()/n` of `a × b` into
/// `out_rows` straight from the row-major `[k, n]` operand `bd` — no
/// packing. SIMD lanes run across output columns; per element the
/// accumulation is the exact naive sequence, so results are
/// bit-identical to [`crate::reference::matmul`].
///
/// # Panics
///
/// Panics when `out_rows` is not whole rows, `ad` ends before the last
/// of them or `bd` is shorter than `k × n` — the x86 bodies index
/// unchecked.
pub fn matmul_simd_rows(
    ad: &[f32],
    row0: usize,
    out_rows: &mut [f32],
    k: usize,
    n: usize,
    bd: &[f32],
) {
    if n == 0 || out_rows.is_empty() {
        return;
    }
    assert!(
        out_rows.len().is_multiple_of(n)
            && ad.len() >= (row0 + out_rows.len() / n) * k
            && bd.len() >= k * n,
        "matmul_simd_rows: operand extents"
    );
    let a = &ad[row0 * k..];
    #[cfg(target_arch = "x86_64")]
    {
        match select() {
            // SAFETY: `select()` only returns these variants after
            // runtime detection of the corresponding CPU feature; the
            // assert above bounds every index the bodies form.
            MatKernel::Avx512 => unsafe {
                x86::rows_avx512(a, k, bd, out_rows, n);
                return;
            },
            MatKernel::Avx2 => unsafe {
                x86::rows_avx2(a, k, bd, out_rows, n);
                return;
            },
            MatKernel::Portable => {}
        }
    }
    rows_portable(a, k, bd, out_rows, n);
}

/// Rows of the reduction axis the `aᵀ × b` row kernels sweep before
/// moving to the next output tile. 256 rows of both operands fit L2 up
/// to 256 columns each (2 × 256 KB), so each operand streams from
/// memory once however many output tiles re-read the block.
pub const AT_BLOCK: usize = 256;

/// Like [`matmul_simd_rows`], but for `aᵀ × b` without materialising
/// the transpose: `ad` is the row-major `[p, m]` matrix whose *columns*
/// are the left operand's rows. Output rows `row0..` land in
/// `out_rows` (`[.., n]`), overwriting every element. Per-element
/// accumulation order matches the transpose-then-multiply composition
/// exactly.
///
/// With `carried`, `out_rows` already holds the product over earlier
/// rows of the reduction axis and these `p` rows are swept in on top of
/// it: the first reduction block reloads `out_rows` as every later one
/// does, so a product fed in consecutive pieces is bit-identical to the
/// same product in one call.
///
/// # Panics
///
/// Panics when the operands are shorter than `p × m` / `p × n` or
/// `out_rows` reaches past row `m` — the x86 bodies index unchecked.
#[allow(clippy::too_many_arguments)]
pub fn matmul_at_rows(
    ad: &[f32],
    row0: usize,
    out_rows: &mut [f32],
    p: usize,
    m: usize,
    n: usize,
    bd: &[f32],
    carried: bool,
) {
    if n == 0 || out_rows.is_empty() {
        return;
    }
    assert!(
        ad.len() >= p * m
            && bd.len() >= p * n
            && out_rows.len().is_multiple_of(n)
            && row0 + out_rows.len() / n <= m,
        "matmul_at_rows: operand extents"
    );
    #[cfg(target_arch = "x86_64")]
    {
        match select() {
            // SAFETY: as in `matmul_simd_rows`; the assert above bounds
            // every index the bodies form.
            MatKernel::Avx512 => unsafe {
                x86::at_rows_avx512(ad, row0, out_rows, p, m, n, bd, carried);
                return;
            },
            MatKernel::Avx2 => unsafe {
                x86::at_rows_avx2(ad, row0, out_rows, p, m, n, bd, carried);
                return;
            },
            MatKernel::Portable => {}
        }
    }
    at_rows_portable(ad, row0, out_rows, p, m, n, bd, carried);
}

/// Which fold a reduction microkernel applies.
///
/// The scalar reference for each output element is one accumulator,
/// swept over the reduced axis in ascending index order:
/// `acc = acc + v` for [`RedOp::Sum`], [`max_fold`] for [`RedOp::Max`].
/// The vector kernels replicate that per-element sequence exactly —
/// lanes span independent *output* elements, never one reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedOp {
    /// `acc + v`, ascending index.
    Sum,
    /// [`max_fold`], ascending index.
    Max,
}

impl RedOp {
    /// The fold's identity element (`0.0` / `-∞`).
    #[inline]
    pub fn init(self) -> f32 {
        match self {
            RedOp::Sum => 0.0,
            RedOp::Max => f32::NEG_INFINITY,
        }
    }
}

/// The pinned max-fold step shared by the scalar reference and the
/// vector kernels: take `v` when it compares greater or when the
/// accumulator is NaN, otherwise keep the accumulator.
///
/// This matches `f32::max`'s NaN handling (a NaN operand is ignored;
/// NaN results only from an all-NaN fold seeded by a NaN accumulator)
/// but *pins* the tie case `f32::max` leaves unspecified: on operands
/// that compare equal — notably `+0.0` vs `-0.0` — the accumulator
/// (earliest) value wins. The vector kernels implement exactly this
/// predicate (`v > acc`, ordered-quiet, OR `acc ≠ acc`), so tiered and
/// reference folds are bit-identical on every input including NaN/∞.
#[inline]
pub fn max_fold(acc: f32, v: f32) -> f32 {
    if v > acc || acc.is_nan() {
        v
    } else {
        acc
    }
}

/// Counts the non-finite (NaN or ±∞) entries of a slice — the numeric
/// sentinel the health watchdog runs over the flat parameter vector
/// once per iteration.
///
/// IEEE-754 single precision encodes every non-finite value with an
/// all-ones exponent, so the scan is a pure integer mask-and-compare on
/// the bit pattern: no float compares, no NaN-propagation hazards, and
/// the unrolled accumulator loop autovectorises on every dispatch
/// family. Order-independent (a count), so no fold-order pinning is
/// needed.
#[must_use]
pub fn count_nonfinite(data: &[f32]) -> u64 {
    const EXP_MASK: u32 = 0x7f80_0000;
    let mut chunks = data.chunks_exact(16);
    let mut counts = [0u32; 16];
    for c in &mut chunks {
        for (acc, v) in counts.iter_mut().zip(c) {
            *acc += u32::from(v.to_bits() & EXP_MASK == EXP_MASK);
        }
    }
    let mut total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    for v in chunks.remainder() {
        total += u64::from(v.to_bits() & EXP_MASK == EXP_MASK);
    }
    total
}

/// Row reductions (`inner == 1`): `out[r] = fold(ad[(row0+r)·mid ..
/// (row0+r+1)·mid])`, then optionally `· scale` — the single-pass
/// `mean_axis` epilogue, applied to each output element right after its
/// own fold finishes (the same per-element multiply a separate rescale
/// traversal would perform).
///
/// Each output element is a whole-row fold with a serial dependency, so
/// the SIMD kernels put lanes across *rows*: one stride-`mid` gather
/// per ascending `m` step feeds a full block of row accumulators, and
/// every row keeps the scalar ascending-index fold order exactly.
///
/// With `carried`, each fold starts from what `out` already holds
/// instead of the identity: `out` is the same fold over the elements
/// that precede these `mid` along the reduced axis, and the two pieces
/// together are bit-identical to one fold over both (`scale` belongs to
/// the last piece only).
pub fn reduce_rows(
    ad: &[f32],
    row0: usize,
    out: &mut [f32],
    mid: usize,
    op: RedOp,
    scale: Option<f32>,
    carried: bool,
) {
    if out.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // Gather lane offsets are 32-bit.
        if mid.saturating_mul(16) <= i32::MAX as usize {
            match select() {
                // SAFETY: `select()` only returns these variants after
                // runtime detection of the corresponding CPU feature.
                MatKernel::Avx512 => unsafe {
                    x86::reduce_rows_avx512(ad, row0, out, mid, op, scale, carried);
                    return;
                },
                MatKernel::Avx2 => unsafe {
                    x86::reduce_rows_avx2(ad, row0, out, mid, op, scale, carried);
                    return;
                },
                MatKernel::Portable => {}
            }
        }
    }
    reduce_rows_portable(ad, row0, out, mid, op, scale, carried);
}

/// Group reductions (`inner > 1`): `out` is whole groups of `inner`
/// output slots, group `g` covering outer index `group0 + g`;
/// `out[g·inner + i] = fold(ad[((group0+g)·mid + m)·inner + i])` over
/// ascending `m`, then optionally `· scale`.
///
/// Output slots along `inner` are contiguous and independent, so lanes
/// run straight across them with plain vector loads; each slot keeps
/// its scalar ascending-`m` fold order. `carried` as in [`reduce_rows`]:
/// a `[rows, n]` column sum fed in consecutive row blocks is one group
/// whose slots continue from `out`.
#[allow(clippy::too_many_arguments)]
pub fn reduce_groups(
    ad: &[f32],
    group0: usize,
    out: &mut [f32],
    mid: usize,
    inner: usize,
    op: RedOp,
    scale: Option<f32>,
    carried: bool,
) {
    if out.is_empty() || inner == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        match select() {
            // SAFETY: as in `reduce_rows`.
            MatKernel::Avx512 => unsafe {
                x86::reduce_groups_avx512(ad, group0, out, mid, inner, op, scale, carried);
                return;
            },
            MatKernel::Avx2 => unsafe {
                x86::reduce_groups_avx2(ad, group0, out, mid, inner, op, scale, carried);
                return;
            },
            MatKernel::Portable => {}
        }
    }
    reduce_groups_portable(ad, group0, out, mid, inner, op, scale, carried);
}

/// Portable row-reduction kernel: a block of row accumulators advanced
/// together per `m` step — plain arrays the compiler can pipeline, each
/// row still folding in ascending order.
fn reduce_rows_portable(
    ad: &[f32],
    row0: usize,
    out: &mut [f32],
    mid: usize,
    op: RedOp,
    scale: Option<f32>,
    carried: bool,
) {
    const RB: usize = 8;
    let rows = out.len();
    let mut r0 = 0;
    while r0 + RB <= rows {
        let mut acc = [op.init(); RB];
        if carried {
            acc.copy_from_slice(&out[r0..r0 + RB]);
        }
        for m in 0..mid {
            for (l, a) in acc.iter_mut().enumerate() {
                let v = ad[(row0 + r0 + l) * mid + m];
                *a = match op {
                    RedOp::Sum => *a + v,
                    RedOp::Max => max_fold(*a, v),
                };
            }
        }
        if let Some(s) = scale {
            for a in &mut acc {
                *a *= s;
            }
        }
        out[r0..r0 + RB].copy_from_slice(&acc);
        r0 += RB;
    }
    for (r, o) in out.iter_mut().enumerate().skip(r0) {
        let row = &ad[(row0 + r) * mid..(row0 + r + 1) * mid];
        let mut acc = if carried { *o } else { op.init() };
        match op {
            RedOp::Sum => {
                for &v in row {
                    acc += v;
                }
            }
            RedOp::Max => {
                for &v in row {
                    acc = max_fold(acc, v);
                }
            }
        }
        if let Some(s) = scale {
            acc *= s;
        }
        *o = acc;
    }
}

/// Portable group-reduction kernel: 16-slot array accumulators across
/// the contiguous inner dimension.
#[allow(clippy::too_many_arguments)]
fn reduce_groups_portable(
    ad: &[f32],
    group0: usize,
    out: &mut [f32],
    mid: usize,
    inner: usize,
    op: RedOp,
    scale: Option<f32>,
    carried: bool,
) {
    const L: usize = 16;
    for (g, group) in out.chunks_mut(inner).enumerate() {
        let src = (group0 + g) * mid * inner;
        let blocks = inner / L;
        for jb in 0..blocks {
            let j = jb * L;
            let mut acc = [op.init(); L];
            if carried {
                acc.copy_from_slice(&group[j..j + L]);
            }
            for m in 0..mid {
                let v: &[f32; L] =
                    ad[src + m * inner + j..src + m * inner + j + L].try_into().expect("L block");
                for (a, &vv) in acc.iter_mut().zip(v) {
                    *a = match op {
                        RedOp::Sum => *a + vv,
                        RedOp::Max => max_fold(*a, vv),
                    };
                }
            }
            if let Some(s) = scale {
                for a in &mut acc {
                    *a *= s;
                }
            }
            group[j..j + L].copy_from_slice(&acc);
        }
        for (jj, slot) in group.iter_mut().enumerate().skip(blocks * L) {
            let mut acc = if carried { *slot } else { op.init() };
            for m in 0..mid {
                let v = ad[src + m * inner + jj];
                acc = match op {
                    RedOp::Sum => acc + v,
                    RedOp::Max => max_fold(acc, v),
                };
            }
            if let Some(s) = scale {
                acc *= s;
            }
            *slot = acc;
        }
    }
}

/// Portable column-lane row kernel: 16-element array accumulators the
/// autovectorizer maps onto whatever SIMD the target has; the `n mod 16`
/// right-edge columns run on row lanes.
fn rows_portable(a: &[f32], k: usize, bd: &[f32], out: &mut [f32], n: usize) {
    const L: usize = 16;
    let rows = out.len() / n;
    let tail0 = n - n % L;
    for r in 0..rows {
        for j in (0..tail0).step_by(L) {
            let mut acc = [0.0f32; L];
            for kk in 0..k {
                let av = a[r * k + kk];
                let b: &[f32; L] = bd[kk * n + j..kk * n + j + L].try_into().expect("L block");
                for (slot, &bv) in acc.iter_mut().zip(b) {
                    *slot = av.mul_add(bv, *slot);
                }
            }
            out[r * n + j..r * n + j + L].copy_from_slice(&acc);
        }
    }
    if tail0 < n {
        lanes_portable(a, k, &bd[tail0..], n, out, n, tail0);
    }
}

/// Portable row-lane kernel (module docs, "Row lanes"): output columns
/// `j0..n` of every row of `out` from `b`, whose element `(kk, c)` is
/// `b[kk·bk + c]` — `bk = n` for a row-major operand offset to column
/// `j0`, the panel width for a pack. Lanes run across 16 output rows:
/// each step gathers column `kk` of the row group's block of `a` and
/// broadcasts `b[kk][c]`, one fused multiply–add per element.
fn lanes_portable(a: &[f32], k: usize, b: &[f32], bk: usize, out: &mut [f32], n: usize, j0: usize) {
    const L: usize = 16;
    let (rows, w) = (out.len() / n, n - j0);
    for i0 in (0..rows).step_by(L) {
        let rl = L.min(rows - i0);
        // `acc[c][l]` is `out[i0 + l][j0 + c]`.
        let mut acc = [[0.0f32; L]; L];
        for kk in 0..k {
            let mut av = [0.0f32; L];
            for (l, v) in av.iter_mut().enumerate().take(rl) {
                *v = a[(i0 + l) * k + kk];
            }
            for (c, acc_c) in acc.iter_mut().enumerate().take(w) {
                let bv = b[kk * bk + c];
                for (slot, &x) in acc_c.iter_mut().zip(&av) {
                    *slot = x.mul_add(bv, *slot);
                }
            }
        }
        for l in 0..rl {
            for (c, acc_c) in acc.iter().enumerate().take(w) {
                out[(i0 + l) * n + j0 + c] = acc_c[l];
            }
        }
    }
}

/// Portable transpose-free `aᵀ × b` row kernel — the safe-Rust
/// spelling of the blocked shape described in the module docs, and the
/// reference the x86 bodies are tested against.
#[allow(clippy::too_many_arguments)]
fn at_rows_portable(
    ad: &[f32],
    row0: usize,
    out: &mut [f32],
    p: usize,
    m: usize,
    n: usize,
    bd: &[f32],
    carried: bool,
) {
    const L: usize = 16;
    const RB: usize = 4;
    let rows = out.len() / n;
    let tail0 = n - n % L;
    let lane_rows = rows - rows % L;
    let mut k0 = 0;
    // The first block runs even when `p == 0`, so `out` is always
    // overwritten.
    loop {
        let k1 = (k0 + AT_BLOCK).min(p);
        let resume = k0 > 0 || carried;
        // Column lanes: RB output rows × one L-wide column block.
        for j in (0..tail0).step_by(L) {
            for r0 in (0..rows).step_by(RB) {
                let rm = RB.min(rows - r0);
                let mut acc = [[0.0f32; L]; RB];
                if resume {
                    for (r, acc_r) in acc.iter_mut().take(rm).enumerate() {
                        acc_r.copy_from_slice(&out[(r0 + r) * n + j..(r0 + r) * n + j + L]);
                    }
                }
                for kk in k0..k1 {
                    let b: &[f32; L] = bd[kk * n + j..kk * n + j + L].try_into().expect("L block");
                    for (r, acc_r) in acc.iter_mut().take(rm).enumerate() {
                        let av = ad[kk * m + row0 + r0 + r];
                        for (slot, &bv) in acc_r.iter_mut().zip(b) {
                            *slot = av.mul_add(bv, *slot);
                        }
                    }
                }
                for (r, acc_r) in acc.iter().take(rm).enumerate() {
                    out[(r0 + r) * n + j..(r0 + r) * n + j + L].copy_from_slice(acc_r);
                }
            }
        }
        // Row lanes: L output rows × up to RB right-edge columns, held
        // transposed (`acc[c][l]` is `out[i0 + l][j + c]`).
        for i0 in (0..lane_rows).step_by(L) {
            for j in (tail0..n).step_by(RB) {
                let cm = RB.min(n - j);
                let mut acc = [[0.0f32; L]; RB];
                if resume {
                    for (c, acc_c) in acc.iter_mut().take(cm).enumerate() {
                        for (l, slot) in acc_c.iter_mut().enumerate() {
                            *slot = out[(i0 + l) * n + j + c];
                        }
                    }
                }
                for kk in k0..k1 {
                    let a: &[f32; L] =
                        ad[kk * m + row0 + i0..kk * m + row0 + i0 + L].try_into().expect("L block");
                    for (c, acc_c) in acc.iter_mut().take(cm).enumerate() {
                        let bv = bd[kk * n + j + c];
                        for (slot, &av) in acc_c.iter_mut().zip(a) {
                            *slot = av.mul_add(bv, *slot);
                        }
                    }
                }
                for (c, acc_c) in acc.iter().take(cm).enumerate() {
                    for (l, &v) in acc_c.iter().enumerate() {
                        out[(i0 + l) * n + j + c] = v;
                    }
                }
            }
        }
        // Fewer than L rows left under the right-edge columns: scalar.
        for r in lane_rows..rows {
            for j in tail0..n {
                let mut acc = if resume { out[r * n + j] } else { 0.0 };
                for kk in k0..k1 {
                    acc = ad[kk * m + row0 + r].mul_add(bd[kk * n + j], acc);
                }
                out[r * n + j] = acc;
            }
        }
        k0 = k1;
        if k0 >= p {
            break;
        }
    }
}

/// Scalar edge kernel: the `rows mod MR` remainder rows under the
/// register tiles, across every panel. One accumulator per output
/// element, ascending `k`, one fused multiply–add per step — the exact
/// naive sequence. Always inlined, so under an x86 tile it compiles with
/// that function's features and `mul_add` is a `vfmadd`, not a libm call.
#[inline(always)]
fn edge_scalar(
    a: &[f32],
    k: usize,
    bp: &[f32],
    out: &mut [f32],
    n: usize,
    nr: usize,
    full_rows: usize,
) {
    for r in full_rows..out.len() / n {
        for j in 0..n {
            let panel = &bp[j / nr * k * nr..];
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a[r * k + kk].mul_add(panel[kk * nr + j % nr], acc);
            }
            out[r * n + j] = acc;
        }
    }
}

/// Portable 4×16 register-tile kernel: plain arrays the autovectorizer
/// maps onto whatever SIMD the target has, with the same per-element
/// fused multiply–add accumulation as the naive kernel. The right-edge panel
/// runs the same loop on its zero padding and stores its `w` real lanes.
fn tile_portable(a: &[f32], k: usize, bp: &[f32], out: &mut [f32], n: usize) {
    const MR: usize = 4;
    const NR: usize = 16;
    if n < NR {
        return lanes_portable(a, k, bp, NR, out, n, 0);
    }
    let rows = out.len() / n;
    let full_rows = rows - rows % MR;
    for i in (0..full_rows).step_by(MR) {
        for p in 0..n.div_ceil(NR) {
            let w = NR.min(n - p * NR);
            let panel = &bp[p * k * NR..(p + 1) * k * NR];
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..k {
                let b: &[f32; NR] = panel[kk * NR..(kk + 1) * NR].try_into().expect("NR block");
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let av = a[(i + r) * k + kk];
                    for (slot, &bv) in acc_r.iter_mut().zip(b) {
                        *slot = av.mul_add(bv, *slot);
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                let o = (i + r) * n + p * NR;
                out[o..o + w].copy_from_slice(&acc_r[..w]);
            }
        }
    }
    edge_scalar(a, k, bp, out, n, NR, full_rows);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Runtime-dispatched AVX2 / AVX-512 microkernels. Every product
    //! accumulator update is `fmadd(av, b, acc)` — one rounding, exactly
    //! like the scalar `acc = av.mul_add(bv, acc)`. The scalar edges
    //! spell `mul_add` inside the feature-enabled functions, where it
    //! is the same instruction rather than a libm call.

    use std::arch::x86_64::{
        __m256, __m512, _mm256_add_ps, _mm256_blendv_ps, _mm256_castpd_ps, _mm256_castps128_ps256,
        _mm256_castps_pd, _mm256_cmp_ps, _mm256_cmpgt_epi32, _mm256_fmadd_ps, _mm256_i32gather_ps,
        _mm256_insertf128_ps, _mm256_loadu_ps, _mm256_maskload_ps, _mm256_maskstore_ps,
        _mm256_mul_ps, _mm256_mullo_epi32, _mm256_or_ps, _mm256_set1_epi32, _mm256_set1_ps,
        _mm256_setr_epi32, _mm256_setzero_ps, _mm256_storeu_ps, _mm256_unpackhi_pd,
        _mm256_unpackhi_ps, _mm256_unpacklo_pd, _mm256_unpacklo_ps, _mm512_add_ps,
        _mm512_castpd_ps, _mm512_castps128_ps512, _mm512_castps_pd, _mm512_cmp_ps_mask,
        _mm512_fmadd_ps, _mm512_i32gather_ps, _mm512_insertf32x4, _mm512_loadu_ps,
        _mm512_mask_blend_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps,
        _mm512_mullo_epi32, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setr_epi32,
        _mm512_setzero_ps, _mm512_storeu_ps, _mm512_unpackhi_pd, _mm512_unpackhi_ps,
        _mm512_unpacklo_pd, _mm512_unpacklo_ps, _mm_loadu_ps, _CMP_GT_OQ, _CMP_UNORD_Q,
    };

    use super::{edge_scalar, reduce_rows_portable, RedOp, AT_BLOCK};

    /// Generates one ISA's unpacked row kernel: `RB` output rows × one
    /// vector of columns on lanes across output columns, then the
    /// `n mod $lanes` right-edge columns on that ISA's row lanes
    /// (`$row_lanes`, generated by `lanes_x86!`).
    macro_rules! rows_x86 {
        ($(#[$doc:meta])* $name:ident, $row_lanes:ident, $feature:literal, $lanes:literal,
         $zero:ident, $loadu:ident, $storeu:ident, $set1:ident, $fmadd:ident) => {
            $(#[$doc])*
            #[target_feature(enable = $feature)]
            pub unsafe fn $name(a: &[f32], k: usize, bd: &[f32], out: &mut [f32], n: usize) {
                const L: usize = $lanes;
                const RB: usize = 4;
                let rows = out.len() / n;
                let tail0 = n - n % L;
                let ap = a.as_ptr();
                let bp = bd.as_ptr();
                let op = out.as_mut_ptr();
                for r0 in (0..rows).step_by(RB) {
                    let rm = RB.min(rows - r0);
                    for j in (0..tail0).step_by(L) {
                        let mut acc = [$zero(); RB];
                        for kk in 0..k {
                            let bv = $loadu(bp.add(kk * n + j));
                            for (r, acc_r) in acc.iter_mut().take(rm).enumerate() {
                                let av = $set1(*ap.add((r0 + r) * k + kk));
                                *acc_r = $fmadd(av, bv, *acc_r);
                            }
                        }
                        for (r, acc_r) in acc.iter().take(rm).enumerate() {
                            $storeu(op.add((r0 + r) * n + j), *acc_r);
                        }
                    }
                }
                if tail0 < n {
                    $row_lanes(ap, k, rows, bp.add(tail0), n, op.add(tail0), n, n - tail0);
                }
            }
        };
    }

    rows_x86!(
        /// Unpacked row kernel, zmm lanes across output columns.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` (guaranteed by [`super::select`]), `out` of
        /// whole `n`-wide rows, `a` of as many `k`-long rows and `bd` of
        /// `k × n`.
        rows_avx512, lanes_avx512, "avx512f", 16,
        _mm512_setzero_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_fmadd_ps
    );

    rows_x86!(
        /// Unpacked row kernel, ymm lanes across output columns.
        ///
        /// # Safety
        ///
        /// Requires `avx2` and `fma` (guaranteed by [`super::select`]) and
        /// the operand extents of [`rows_avx512`].
        rows_avx2, lanes_avx2, "avx2,fma", 8,
        _mm256_setzero_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_fmadd_ps
    );

    /// Columns `0..kw` of rows `0..rows` (both at most 16) of the
    /// row-major `a` (row stride `k`), transposed in registers: lane `l`
    /// of `t[kk]` is `a[l][kk]`. Lanes past `rows` and vectors past `kw`
    /// are zero. A whole 16 × 16 block is read as 128-bit row pieces,
    /// four of them (rows `s`, `4 + s`, `8 + s`, `12 + s`) to a register,
    /// which leaves one 4 × 4 transpose inside each 128-bit lane: two
    /// rounds of in-lane unpacks, 32 shuffles where a register-to-register
    /// transpose takes 64. A partial block is first copied into a
    /// zero-padded one.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` and `a` readable over `rows` rows of `kw`
    /// floats at stride `k`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose_avx512(a: *const f32, k: usize, rows: usize, kw: usize) -> [__m512; 16] {
        if rows < 16 || kw < 16 {
            let mut pad = [0.0f32; 16 * 16];
            let cols = (0xffff_u32 >> (16 - kw)) as u16;
            for r in 0..rows {
                _mm512_storeu_ps(
                    pad.as_mut_ptr().add(r * 16),
                    _mm512_maskz_loadu_ps(cols, a.add(r * k)),
                );
            }
            return transpose16_avx512(pad.as_ptr(), 16);
        }
        transpose16_avx512(a, k)
    }

    /// The whole-block body of [`transpose_avx512`].
    ///
    /// # Safety
    ///
    /// Requires `avx512f` and `src` readable over 16 rows of 16 floats at
    /// stride `stride`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose16_avx512(src: *const f32, stride: usize) -> [__m512; 16] {
        let mut t = [_mm512_setzero_ps(); 16];
        for q in 0..4 {
            // Lane `g` of `w[s]` is `a[4g + s][4q .. 4q + 4]`.
            let mut w = [_mm512_setzero_ps(); 4];
            for (s, ws) in w.iter_mut().enumerate() {
                let piece = |g: usize| src.add((4 * g + s) * stride + 4 * q);
                let mut v = _mm512_castps128_ps512(_mm_loadu_ps(piece(0)));
                v = _mm512_insertf32x4::<1>(v, _mm_loadu_ps(piece(1)));
                v = _mm512_insertf32x4::<2>(v, _mm_loadu_ps(piece(2)));
                *ws = _mm512_insertf32x4::<3>(v, _mm_loadu_ps(piece(3)));
            }
            let lo01 = _mm512_castps_pd(_mm512_unpacklo_ps(w[0], w[1]));
            let hi01 = _mm512_castps_pd(_mm512_unpackhi_ps(w[0], w[1]));
            let lo23 = _mm512_castps_pd(_mm512_unpacklo_ps(w[2], w[3]));
            let hi23 = _mm512_castps_pd(_mm512_unpackhi_ps(w[2], w[3]));
            t[4 * q] = _mm512_castpd_ps(_mm512_unpacklo_pd(lo01, lo23));
            t[4 * q + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(lo01, lo23));
            t[4 * q + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(hi01, hi23));
            t[4 * q + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(hi01, hi23));
        }
        t
    }

    /// The 8 × 8 ymm counterpart of [`transpose_avx512`]: rows `s` and
    /// `4 + s` share a register, 16 in-lane shuffles.
    ///
    /// # Safety
    ///
    /// Requires `avx2` and `a` readable over `rows` rows of `kw` floats
    /// at stride `k` (both at most 8).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose_avx2(a: *const f32, k: usize, rows: usize, kw: usize) -> [__m256; 8] {
        if rows < 8 || kw < 8 {
            let mut pad = [0.0f32; 8 * 8];
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let cols = _mm256_cmpgt_epi32(_mm256_set1_epi32(kw as i32), lane);
            for r in 0..rows {
                _mm256_storeu_ps(
                    pad.as_mut_ptr().add(r * 8),
                    _mm256_maskload_ps(a.add(r * k), cols),
                );
            }
            return transpose8_avx2(pad.as_ptr(), 8);
        }
        transpose8_avx2(a, k)
    }

    /// The whole-block body of [`transpose_avx2`].
    ///
    /// # Safety
    ///
    /// Requires `avx2` and `src` readable over 8 rows of 8 floats at
    /// stride `stride`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8_avx2(src: *const f32, stride: usize) -> [__m256; 8] {
        let mut t = [_mm256_setzero_ps(); 8];
        for q in 0..2 {
            let mut w = [_mm256_setzero_ps(); 4];
            for (s, ws) in w.iter_mut().enumerate() {
                let v = _mm256_castps128_ps256(_mm_loadu_ps(src.add(s * stride + 4 * q)));
                *ws = _mm256_insertf128_ps::<1>(v, _mm_loadu_ps(src.add((4 + s) * stride + 4 * q)));
            }
            let lo01 = _mm256_castps_pd(_mm256_unpacklo_ps(w[0], w[1]));
            let hi01 = _mm256_castps_pd(_mm256_unpackhi_ps(w[0], w[1]));
            let lo23 = _mm256_castps_pd(_mm256_unpacklo_ps(w[2], w[3]));
            let hi23 = _mm256_castps_pd(_mm256_unpackhi_ps(w[2], w[3]));
            t[4 * q] = _mm256_castpd_ps(_mm256_unpacklo_pd(lo01, lo23));
            t[4 * q + 1] = _mm256_castpd_ps(_mm256_unpackhi_pd(lo01, lo23));
            t[4 * q + 2] = _mm256_castpd_ps(_mm256_unpacklo_pd(hi01, hi23));
            t[4 * q + 3] = _mm256_castpd_ps(_mm256_unpackhi_pd(hi01, hi23));
        }
        t
    }

    /// Generates one ISA's row-lane kernel (module docs, "Row lanes"):
    /// `w < $lanes` output columns of every row, lanes across `$lanes`
    /// output rows. Each `$lanes × $lanes` block of `a` is transposed in
    /// registers (`$transpose`) and every column `c` accumulates
    /// `t[kk] × b[kk·bk + c]` (broadcast), `kk` ascending — at stride
    /// `bk = n` from a row-major operand, the panel width from a pack.
    /// Up to eight columns (`$group`; every head of the ledger) keep their
    /// accumulators in registers over the whole sweep of a row group; a
    /// wider edge takes a second sweep for the rest.
    macro_rules! lanes_x86 {
        ($(#[$doc:meta])* $name:ident, $group:ident, $transpose:ident, $feature:literal,
         $lanes:literal, $vec:ty, $zero:ident, $set1:ident, $fmadd:ident, $storeu:ident) => {
            /// `W` columns of one row group (`rows` of them) swept over
            /// all `k` steps, `b` at the sweep's first column.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn $group<const W: usize>(
                a: *const f32,
                k: usize,
                rows: usize,
                mut b: *const f32,
                bk: usize,
            ) -> [$vec; W] {
                let mut acc = [$zero(); W];
                for kk0 in (0..k).step_by($lanes) {
                    let kw = k - kk0;
                    for &av in $transpose(a.add(kk0), k, rows, kw.min($lanes)).iter().take(kw) {
                        for (c, slot) in acc.iter_mut().enumerate() {
                            *slot = $fmadd(av, $set1(*b.add(c)), *slot);
                        }
                        b = b.wrapping_add(bk);
                    }
                }
                acc
            }

            $(#[$doc])*
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $feature)]
            pub unsafe fn $name(
                a: *const f32,
                k: usize,
                rows: usize,
                b: *const f32,
                bk: usize,
                o: *mut f32,
                n: usize,
                w: usize,
            ) {
                const L: usize = $lanes;
                // `spill[c][l]` is `o[(i0 + l)·n + c]`.
                let mut spill = [[0.0f32; L]; L];
                for i0 in (0..rows).step_by(L) {
                    let (a, rl) = (a.add(i0 * k), L.min(rows - i0));
                    for c0 in (0..w).step_by(8) {
                        let (b, cols) = (b.add(c0), &mut spill[c0..]);
                        macro_rules! sweep {
                            ($w:literal) => {
                                for (col, v) in cols.iter_mut().zip($group::<$w>(a, k, rl, b, bk)) {
                                    $storeu(col.as_mut_ptr(), v);
                                }
                            };
                        }
                        match w - c0 {
                            1 => sweep!(1),
                            2 => sweep!(2),
                            3 => sweep!(3),
                            4 => sweep!(4),
                            5 => sweep!(5),
                            6 => sweep!(6),
                            7 => sweep!(7),
                            _ => sweep!(8),
                        }
                    }
                    for l in 0..rl {
                        for (c, col) in spill.iter().enumerate().take(w) {
                            *o.add((i0 + l) * n + c) = col[l];
                        }
                    }
                }
            }
        };
    }

    lanes_x86!(
        /// Row-lane kernel on zmm lanes: output columns `..w` (`w < 16`)
        /// of rows `..rows` at `o` (row stride `n`) from `a` (row stride
        /// `k`) and `b` (element `(kk, c)` at `b[kk·bk + c]`).
        ///
        /// # Safety
        ///
        /// Requires `avx512f` (guaranteed by [`super::select`]), `a`
        /// readable over `rows × k`, `b` over `(k − 1)·bk + w` and `o`
        /// writable over `(rows − 1)·n + w` floats.
        lanes_avx512, lanes_group_avx512, transpose_avx512, "avx512f", 16, __m512,
        _mm512_setzero_ps, _mm512_set1_ps, _mm512_fmadd_ps, _mm512_storeu_ps
    );

    lanes_x86!(
        /// Row-lane kernel on ymm lanes (`w < 8`).
        ///
        /// # Safety
        ///
        /// Requires `avx2` and `fma` (guaranteed by [`super::select`]) and
        /// the operand extents of [`lanes_avx512`].
        lanes_avx2, lanes_group_avx2, transpose_avx2, "avx2,fma", 8, __m256,
        _mm256_setzero_ps, _mm256_set1_ps, _mm256_fmadd_ps, _mm256_storeu_ps
    );

    /// Generates a transpose-free `aᵀ × b` row kernel: the blocked shape
    /// of [`super::at_rows_portable`] (see the module docs) spelled with
    /// one ISA's vector intrinsics, its column lanes on that ISA's
    /// register tile (`$panel`, generated by `tile_x86!`).
    macro_rules! at_rows_x86 {
        ($(#[$doc:meta])* $name:ident, $panel:ident, $feature:literal, $lanes:literal, $mr:literal,
         $zero:ident, $loadu:ident, $storeu:ident, $set1:ident, $fmadd:ident) => {
            $(#[$doc])*
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $feature)]
            pub unsafe fn $name(
                ad: &[f32],
                row0: usize,
                out: &mut [f32],
                p: usize,
                m: usize,
                n: usize,
                bd: &[f32],
                carried: bool,
            ) {
                const L: usize = $lanes;
                const MR: usize = $mr;
                const NR: usize = 32;
                const RB: usize = 4;
                let rows = out.len() / n;
                let tail0 = n - n % L;
                let lane_rows = rows - rows % L;
                let ap = ad.as_ptr();
                let bp = bd.as_ptr();
                let op = out.as_mut_ptr();
                let mut k0 = 0;
                // The first block runs even when `p == 0`, so `out` is
                // always overwritten.
                loop {
                    let k1 = (k0 + AT_BLOCK).min(p);
                    let resume = k0 > 0 || carried;
                    // Column lanes: the packed tile's MR × 32 accumulators
                    // on `b`'s row-major rows, then MR × L ones over what
                    // is left of the whole vectors.
                    let mut j = 0;
                    while j < tail0 {
                        let wide = tail0 - j >= NR;
                        for r0 in (0..rows).step_by(MR) {
                            // `wrapping_add`: with `p == 0` both operands
                            // are empty and no step dereferences these.
                            let a = ap.wrapping_add(k0 * m + row0 + r0);
                            let (b, o) = (bp.wrapping_add(k0 * n + j), op.add(r0 * n + j));
                            let rm = MR.min(rows - r0);
                            if wide {
                                $panel::<{ NR / L }>(a, (1, m), b, n, k1 - k0, o, n, NR, rm, resume);
                            } else {
                                $panel::<1>(a, (1, m), b, n, k1 - k0, o, n, L, rm, resume);
                            }
                        }
                        j += if wide { NR } else { L };
                    }
                    // Row lanes: L output rows × up to RB right-edge
                    // columns, held transposed (lane `l` of `acc[c]` is
                    // `out[i0 + l][j + c]`).
                    for i0 in (0..lane_rows).step_by(L) {
                        for j in (tail0..n).step_by(RB) {
                            let cm = RB.min(n - j);
                            let mut acc = [$zero(); RB];
                            let mut t = [0.0f32; L];
                            if resume {
                                for (c, acc_c) in acc.iter_mut().take(cm).enumerate() {
                                    for (l, slot) in t.iter_mut().enumerate() {
                                        *slot = *op.add((i0 + l) * n + j + c);
                                    }
                                    *acc_c = $loadu(t.as_ptr());
                                }
                            }
                            for kk in k0..k1 {
                                let av = $loadu(ap.add(kk * m + row0 + i0));
                                for (c, acc_c) in acc.iter_mut().take(cm).enumerate() {
                                    let bv = $set1(*bp.add(kk * n + j + c));
                                    *acc_c = $fmadd(av, bv, *acc_c);
                                }
                            }
                            for (c, acc_c) in acc.iter().take(cm).enumerate() {
                                $storeu(t.as_mut_ptr(), *acc_c);
                                for (l, &v) in t.iter().enumerate() {
                                    *op.add((i0 + l) * n + j + c) = v;
                                }
                            }
                        }
                    }
                    // Fewer than L rows left under the right-edge
                    // columns: scalar.
                    for r in lane_rows..rows {
                        for j in tail0..n {
                            let o = op.add(r * n + j);
                            let mut acc = if resume { *o } else { 0.0 };
                            for kk in k0..k1 {
                                acc = (*ap.add(kk * m + row0 + r)).mul_add(*bp.add(kk * n + j), acc);
                            }
                            *o = acc;
                        }
                    }
                    k0 = k1;
                    if k0 >= p {
                        break;
                    }
                }
            }
        };
    }

    at_rows_x86!(
        /// Transpose-free `aᵀ × b` row kernel on zmm lanes.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` (guaranteed by [`super::select`]), `ad` of
        /// `p × m`, `bd` of `p × n` and `out` of whole `n`-wide rows with
        /// `row0 + out.len() / n <= m`.
        at_rows_avx512, tile_panel_avx512, "avx512f", 16, 8,
        _mm512_setzero_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_fmadd_ps
    );

    at_rows_x86!(
        /// Transpose-free `aᵀ × b` row kernel on ymm lanes.
        ///
        /// # Safety
        ///
        /// Requires `avx2` and `fma` (guaranteed by [`super::select`]) and
        /// the operand extents of [`at_rows_avx512`].
        at_rows_avx2, tile_panel_avx2, "avx2,fma", 8, 4,
        _mm256_setzero_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_fmadd_ps
    );

    /// Stores the first `lanes` (0..=16) lanes of `v` at `o`; the rest
    /// of the destination is neither written nor touched.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` and `o` valid for writing `lanes` floats.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_lanes_avx512(o: *mut f32, v: __m512, lanes: usize) {
        _mm512_mask_storeu_ps(o, (0xffff_u32 >> (16 - lanes)) as u16, v);
    }

    /// Stores the first `lanes` (0..=8) lanes of `v` at `o`; the rest of
    /// the destination is neither written nor touched.
    ///
    /// # Safety
    ///
    /// Requires `avx2` and `o` valid for writing `lanes` floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_lanes_avx2(o: *mut f32, v: __m256, lanes: usize) {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_maskstore_ps(o, _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes as i32), lane), v);
    }

    /// Generates one ISA's register tile and its packed kernel. `$panel`
    /// is the one accumulator loop of every vector product here: `$mr`
    /// output rows × `NV` vectors of columns swept over the reduction
    /// axis, one fused multiply–add per element per step. `$name` runs it
    /// over [`super::PackedB`] panels — every panel, the zero-padded
    /// right edge included, on `NV` = one vector when its `w` real
    /// columns fit one, else all `32 / $lanes`, storing only the `w` real
    /// lanes — and `at_rows_x86!` runs it over the rows of a row-major
    /// `b` for `aᵀ × b`.
    macro_rules! tile_x86 {
        ($(#[$doc:meta])* $name:ident, $panel:ident, $row_lanes:ident, $feature:literal,
         $lanes:literal, $mr:literal, $zero:ident, $loadu:ident, $set1:ident, $fmadd:ident,
         $store_lanes:ident) => {
            /// Output rows `..rows` (at most `$mr`) × `NV` vectors of
            /// accumulators over `k` steps: step `kk` broadcasts
            /// `a[r·ar + kk·ak]` for row `r` — strides `(k, 1)` walk the
            /// rows of a row-major left operand, `(1, m)` the columns of
            /// a `[p, m]` one — and loads `b[kk·bk ..]`. With `resume`
            /// the accumulators start from what `o` holds, which must
            /// then be readable over all `NV` vectors of each row, instead
            /// of zero. Stores lanes `..w` of each row at `o + r·n`.
            #[inline]
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $feature)]
            unsafe fn $panel<const NV: usize>(
                a: *const f32,
                (ar, ak): (usize, usize),
                b: *const f32,
                bk: usize,
                k: usize,
                o: *mut f32,
                n: usize,
                w: usize,
                rows: usize,
                resume: bool,
            ) {
                const L: usize = $lanes;
                let mut acc = [[$zero(); NV]; $mr];
                if resume {
                    for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
                        for (v, slot) in acc_r.iter_mut().enumerate() {
                            *slot = $loadu(o.add(r * n + v * L));
                        }
                    }
                }
                for kk in 0..k {
                    let mut bvs = [$zero(); NV];
                    for (v, bv) in bvs.iter_mut().enumerate() {
                        *bv = $loadu(b.add(kk * bk + v * L));
                    }
                    for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
                        let av = $set1(*a.add(r * ar + kk * ak));
                        for (slot, &bv) in acc_r.iter_mut().zip(&bvs) {
                            *slot = $fmadd(av, bv, *slot);
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate().take(rows) {
                    for (v, &lanes) in acc_r.iter().enumerate() {
                        $store_lanes(o.add(r * n + v * L), lanes, L.min(w.saturating_sub(v * L)));
                    }
                }
            }

            $(#[$doc])*
            #[target_feature(enable = $feature)]
            pub unsafe fn $name(a: &[f32], k: usize, bp: &[f32], out: &mut [f32], n: usize) {
                const MR: usize = $mr;
                const NR: usize = 32;
                let rows = out.len() / n;
                if n < $lanes {
                    $row_lanes(a.as_ptr(), k, rows, bp.as_ptr(), NR, out.as_mut_ptr(), n, n);
                    return;
                }
                let full_rows = rows - rows % MR;
                for i in (0..full_rows).step_by(MR) {
                    for p in 0..n.div_ceil(NR) {
                        let w = NR.min(n - p * NR);
                        let ap = a.as_ptr().add(i * k);
                        let panel = bp.as_ptr().add(p * k * NR);
                        let o = out.as_mut_ptr().add(i * n + p * NR);
                        if w <= $lanes {
                            $panel::<1>(ap, (k, 1), panel, NR, k, o, n, w, MR, false);
                        } else {
                            $panel::<{ NR / $lanes }>(ap, (k, 1), panel, NR, k, o, n, w, MR, false);
                        }
                    }
                }
                edge_scalar(a, k, bp, out, n, NR, full_rows);
            }
        };
    }

    tile_x86!(
        /// 8×32 zmm register-tile kernel.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` (guaranteed by [`super::select`]), `out` of
        /// whole `n`-wide rows, `a` of as many `k`-long rows and `bp` of
        /// `⌈n / 32⌉` panels of `k × 32`.
        tile_avx512, tile_panel_avx512, lanes_avx512, "avx512f", 16, 8,
        _mm512_setzero_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_fmadd_ps, store_lanes_avx512
    );

    tile_x86!(
        /// 4×32 ymm register-tile kernel.
        ///
        /// # Safety
        ///
        /// Requires `avx2` and `fma` (guaranteed by [`super::select`]) and
        /// the operand extents of [`tile_avx512`].
        tile_avx2, tile_panel_avx2, lanes_avx2, "avx2,fma", 8, 4,
        _mm256_setzero_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_fmadd_ps, store_lanes_avx2
    );

    /// One [`super::max_fold`] step on 16 lanes: take `v` where it
    /// compares greater (ordered) or where `acc` is NaN.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn max_step_avx512(acc: __m512, v: __m512) -> __m512 {
        let take =
            _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, acc) | _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(acc, acc);
        _mm512_mask_blend_ps(take, acc, v)
    }

    /// One [`super::max_fold`] step on 8 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn max_step_avx2(acc: __m256, v: __m256) -> __m256 {
        let take = _mm256_or_ps(
            _mm256_cmp_ps::<_CMP_GT_OQ>(v, acc),
            _mm256_cmp_ps::<_CMP_UNORD_Q>(acc, acc),
        );
        _mm256_blendv_ps(acc, v, take)
    }

    /// Row reduction, zmm lanes across 16 rows via stride-`mid` gathers.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` (guaranteed by [`super::select`]).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn reduce_rows_avx512(
        ad: &[f32],
        row0: usize,
        out: &mut [f32],
        mid: usize,
        op: RedOp,
        scale: Option<f32>,
        carried: bool,
    ) {
        const L: usize = 16;
        let rows = out.len();
        let ap = ad.as_ptr();
        let step = _mm512_mullo_epi32(
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            _mm512_set1_epi32(mid as i32),
        );
        let init = match op {
            RedOp::Sum => _mm512_setzero_ps(),
            RedOp::Max => _mm512_set1_ps(f32::NEG_INFINITY),
        };
        let mut r0 = 0;
        while r0 + L <= rows {
            let base = ap.add((row0 + r0) * mid);
            let mut acc = if carried { _mm512_loadu_ps(out.as_ptr().add(r0)) } else { init };
            for m in 0..mid {
                let v = _mm512_i32gather_ps::<4>(step, base.add(m));
                acc = match op {
                    RedOp::Sum => _mm512_add_ps(acc, v),
                    RedOp::Max => max_step_avx512(acc, v),
                };
            }
            if let Some(s) = scale {
                acc = _mm512_mul_ps(acc, _mm512_set1_ps(s));
            }
            _mm512_storeu_ps(out.as_mut_ptr().add(r0), acc);
            r0 += L;
        }
        reduce_rows_portable(ad, row0 + r0, &mut out[r0..], mid, op, scale, carried);
    }

    /// Row reduction, ymm lanes across 8 rows via stride-`mid` gathers.
    ///
    /// # Safety
    ///
    /// Requires `avx2` (guaranteed by [`super::select`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn reduce_rows_avx2(
        ad: &[f32],
        row0: usize,
        out: &mut [f32],
        mid: usize,
        op: RedOp,
        scale: Option<f32>,
        carried: bool,
    ) {
        const L: usize = 8;
        let rows = out.len();
        let ap = ad.as_ptr();
        let step = _mm256_mullo_epi32(
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            _mm256_set1_epi32(mid as i32),
        );
        let init = match op {
            RedOp::Sum => _mm256_setzero_ps(),
            RedOp::Max => _mm256_set1_ps(f32::NEG_INFINITY),
        };
        let mut r0 = 0;
        while r0 + L <= rows {
            let base = ap.add((row0 + r0) * mid);
            let mut acc = if carried { _mm256_loadu_ps(out.as_ptr().add(r0)) } else { init };
            for m in 0..mid {
                let v = _mm256_i32gather_ps::<4>(base.add(m), step);
                acc = match op {
                    RedOp::Sum => _mm256_add_ps(acc, v),
                    RedOp::Max => max_step_avx2(acc, v),
                };
            }
            if let Some(s) = scale {
                acc = _mm256_mul_ps(acc, _mm256_set1_ps(s));
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(r0), acc);
            r0 += L;
        }
        reduce_rows_portable(ad, row0 + r0, &mut out[r0..], mid, op, scale, carried);
    }

    /// Group reduction, zmm lanes across the contiguous inner dim.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` (guaranteed by [`super::select`]).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn reduce_groups_avx512(
        ad: &[f32],
        group0: usize,
        out: &mut [f32],
        mid: usize,
        inner: usize,
        op: RedOp,
        scale: Option<f32>,
        carried: bool,
    ) {
        const L: usize = 16;
        let ap = ad.as_ptr();
        let op_ = out.as_mut_ptr();
        let init = match op {
            RedOp::Sum => _mm512_setzero_ps(),
            RedOp::Max => _mm512_set1_ps(f32::NEG_INFINITY),
        };
        let groups = out.len() / inner;
        for g in 0..groups {
            let src = (group0 + g) * mid * inner;
            let dst = g * inner;
            let blocks = inner / L;
            for jb in 0..blocks {
                let j = jb * L;
                let mut acc = if carried { _mm512_loadu_ps(op_.add(dst + j)) } else { init };
                for m in 0..mid {
                    let v = _mm512_loadu_ps(ap.add(src + m * inner + j));
                    acc = match op {
                        RedOp::Sum => _mm512_add_ps(acc, v),
                        RedOp::Max => max_step_avx512(acc, v),
                    };
                }
                if let Some(s) = scale {
                    acc = _mm512_mul_ps(acc, _mm512_set1_ps(s));
                }
                _mm512_storeu_ps(op_.add(dst + j), acc);
            }
            reduce_tail_scalar(
                ad,
                src,
                &mut out[dst + blocks * L..dst + inner],
                mid,
                inner,
                blocks * L,
                op,
                scale,
                carried,
            );
        }
    }

    /// Group reduction, ymm lanes across the contiguous inner dim.
    ///
    /// # Safety
    ///
    /// Requires `avx2` (guaranteed by [`super::select`]).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn reduce_groups_avx2(
        ad: &[f32],
        group0: usize,
        out: &mut [f32],
        mid: usize,
        inner: usize,
        op: RedOp,
        scale: Option<f32>,
        carried: bool,
    ) {
        const L: usize = 8;
        let ap = ad.as_ptr();
        let op_ = out.as_mut_ptr();
        let init = match op {
            RedOp::Sum => _mm256_setzero_ps(),
            RedOp::Max => _mm256_set1_ps(f32::NEG_INFINITY),
        };
        let groups = out.len() / inner;
        for g in 0..groups {
            let src = (group0 + g) * mid * inner;
            let dst = g * inner;
            let blocks = inner / L;
            for jb in 0..blocks {
                let j = jb * L;
                let mut acc = if carried { _mm256_loadu_ps(op_.add(dst + j)) } else { init };
                for m in 0..mid {
                    let v = _mm256_loadu_ps(ap.add(src + m * inner + j));
                    acc = match op {
                        RedOp::Sum => _mm256_add_ps(acc, v),
                        RedOp::Max => max_step_avx2(acc, v),
                    };
                }
                if let Some(s) = scale {
                    acc = _mm256_mul_ps(acc, _mm256_set1_ps(s));
                }
                _mm256_storeu_ps(op_.add(dst + j), acc);
            }
            reduce_tail_scalar(
                ad,
                src,
                &mut out[dst + blocks * L..dst + inner],
                mid,
                inner,
                blocks * L,
                op,
                scale,
                carried,
            );
        }
    }

    /// Scalar fold for the inner-dim slots a vector block doesn't cover.
    #[allow(clippy::too_many_arguments)]
    fn reduce_tail_scalar(
        ad: &[f32],
        src: usize,
        tail: &mut [f32],
        mid: usize,
        inner: usize,
        j0: usize,
        op: RedOp,
        scale: Option<f32>,
        carried: bool,
    ) {
        for (t, slot) in tail.iter_mut().enumerate() {
            let jj = j0 + t;
            let mut acc = if carried { *slot } else { op.init() };
            for m in 0..mid {
                let v = ad[src + m * inner + jj];
                acc = match op {
                    RedOp::Sum => acc + v,
                    RedOp::Max => super::max_fold(acc, v),
                };
            }
            if let Some(s) = scale {
                acc *= s;
            }
            *slot = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::reference::{matmul as naive, reduce as naive_reduce, transpose};

    fn vals(len: usize, seed: usize) -> Vec<f32> {
        (0..len).map(|i| (((i * 2654435761 + seed) % 1000) as f32) / 500.0 - 1.0).collect()
    }

    #[test]
    fn count_nonfinite_finds_every_poison_at_every_offset() {
        assert_eq!(count_nonfinite(&[]), 0);
        assert_eq!(count_nonfinite(&vals(1000, 3)), 0);
        // Each poison kind counts, at chunk-interior and remainder
        // offsets alike.
        for len in [1usize, 15, 16, 17, 64, 1000] {
            for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for pos in [0, len / 2, len - 1] {
                    let mut v = vals(len, 7);
                    v[pos] = poison;
                    assert_eq!(count_nonfinite(&v), 1, "len {len} pos {pos}");
                }
            }
        }
        // Subnormals, zeros and f32::MAX are finite; counts add up.
        assert_eq!(count_nonfinite(&[f32::MIN_POSITIVE / 2.0, -0.0, f32::MAX]), 0);
        let mut v = vals(100, 9);
        for i in (0..100).step_by(7) {
            v[i] = if i % 2 == 0 { f32::NAN } else { f32::INFINITY };
        }
        let expect = v.iter().filter(|x| !x.is_finite()).count() as u64;
        assert_eq!(count_nonfinite(&v), expect);
    }

    /// Every packed tile family this host can run: the dispatched one,
    /// plus the families the dispatcher passes over here (portable
    /// always, ymm on an AVX-512 host) — their panel width and row block
    /// differ, so each has right-edge and remainder cases of its own.
    fn tile_families() -> Vec<(&'static str, MatKernel)> {
        let mut families = vec![("dispatched", select()), ("portable", MatKernel::Portable)];
        #[cfg(target_arch = "x86_64")]
        if has_avx2_fma() {
            families.push(("avx2", MatKernel::Avx2));
        }
        families
    }

    type Rows = fn(&[f32], usize, &[f32], &mut [f32], usize);

    /// Every unpacked row body this host can run, as [`tile_families`].
    fn rows_bodies() -> Vec<(&'static str, Rows)> {
        let mut bodies: Vec<(&'static str, Rows)> = vec![
            ("dispatched", |a, k, b, out, n| matmul_simd_rows(a, 0, out, k, n, b)),
            ("portable", rows_portable),
        ];
        #[cfg(target_arch = "x86_64")]
        if has_avx2_fma() {
            // SAFETY: avx2 and fma were just detected, and the tests
            // below pass exactly the extents `matmul_simd_rows` asserts.
            bodies.push(("avx2", |a, k, b, out, n| unsafe { x86::rows_avx2(a, k, b, out, n) }));
        }
        bodies
    }

    #[test]
    fn every_product_body_is_fused() {
        // (1 + 2⁻¹²)² is 1 + 2⁻¹¹ + 2⁻²⁴ exactly and rounds to 1 + 2⁻¹¹,
        // so onto a running −(1 + 2⁻¹¹) a fused step leaves 2⁻²⁴ where a
        // product rounded before the add leaves 0. Every element of every
        // product below is that sum: a body left unfused — a right edge,
        // a remainder row — fails wherever its elements land. Shapes
        // reach `rows mod MR ≠ 0`, `n mod 32 ≠ 0`, `n mod L ≠ 0` and
        // `rows < L` in every family.
        // Steps past the second add `0 × 1` — exact — so `k = 32` puts the
        // same sum through whole row-lane transpose blocks and `k = 2`
        // through a padded one.
        let (x, start) = (1.0 + 2f32.powi(-12), -(1.0 + 2f32.powi(-11)));
        for k in [2, 32] {
            for m in [1, 3, 9, 17, 20, 33] {
                for n in [1, 2, 6, 7, 16, 17, 33, 48, 70] {
                    let a = [vec![start, x], vec![0.0; k - 2]].concat().repeat(m);
                    let b = [vec![1.0; n], vec![x; n], vec![1.0; (k - 2) * n]].concat();
                    let expect = naive(&a, &b, m, k, n);
                    assert_bits_eq(&expect, &vec![2f32.powi(-24); m * n], "the reference");
                    for (name, family) in tile_families() {
                        let bp = pack_for(family, &b, k, n, false);
                        let mut out = vec![f32::NAN; m * n];
                        matmul_packed_rows(&a, 0, &mut out, k, n, &bp);
                        assert_bits_eq(&out, &expect, &format!("{name} tile ({m},{k},{n})"));
                    }
                    for (name, body) in rows_bodies() {
                        let mut out = vec![f32::NAN; m * n];
                        body(&a, k, &b, &mut out, n);
                        assert_bits_eq(&out, &expect, &format!("{name} rows ({m},{k},{n})"));
                    }
                    let at = transpose(&a, m, k);
                    for (name, body) in at_bodies() {
                        let mut out = vec![f32::NAN; m * n];
                        body(&at, 0, &mut out, k, m, n, &b, false);
                        assert_bits_eq(&out, &expect, &format!("{name} aᵀ·b ({m},{k},{n})"));
                    }
                }
            }
        }
    }

    /// One product body over a fixed right operand: rows `row0..` of
    /// `a · b` into the given output.
    type Narrow = Box<dyn Fn(&[f32], usize, &mut [f32])>;

    /// Every body that runs an output narrower than its vector on row
    /// lanes, or a right edge of one: the packed tiles (narrow `n`) and
    /// the unpacked row kernels (`n mod L` edge), each family called by
    /// name. Runs rows `row0..m` of `a · b` into `out`.
    fn narrow_bodies(b: &[f32], k: usize, n: usize) -> Vec<(String, Narrow)> {
        let mut bodies: Vec<(String, Narrow)> = Vec::new();
        for (name, family) in tile_families() {
            let bp = pack_for(family, b, k, n, false);
            bodies.push((
                format!("{name} packed"),
                Box::new(move |a, row0, out| matmul_packed_rows(a, row0, out, k, n, &bp)),
            ));
        }
        for (name, body) in rows_bodies() {
            let b = b.to_vec();
            bodies.push((
                format!("{name} row-major"),
                Box::new(move |a, row0, out| body(&a[row0 * k..], k, &b, out, n)),
            ));
        }
        bodies
    }

    #[test]
    fn row_lanes_match_naive_bitwise_on_the_grid() {
        // Widths below, at and past every lane count (1 … 31) × row counts
        // around a row group (16) with ragged last groups × reduction
        // lengths around a transpose block, padded or whole. Each product
        // whole and from an odd row offset (an unaligned sub-slice of `a`
        // and of `out`), `out` arriving NaN and followed by a guard; the
        // tall one (a learn block's height) from the offset only, which
        // keeps the debug suite short.
        const GUARD: usize = 16;
        for n in [1, 2, 3, 6, 7, 15, 17, 31] {
            for k in [1, 2, 4, 16, 17, 64, 65, 256] {
                let b = vals(k * n, 51 + n);
                let bodies = narrow_bodies(&b, k, n);
                for m in [1, 7, 15, 16, 17, 33, 2053] {
                    let a = vals(m * k, 50 + k);
                    let offset = (m / 2) | 1;
                    let starts = if m > 64 { vec![offset] } else { vec![0, offset] };
                    for row0 in starts.into_iter().filter(|&r| r < m) {
                        let expect = naive(&a[row0 * k..], &b, m - row0, k, n);
                        for (name, body) in &bodies {
                            let len = expect.len();
                            let mut buf = vec![f32::NAN; 1 + len + GUARD];
                            buf[1 + len..].fill(7.0);
                            body(&a, row0, &mut buf[1..1 + len]);
                            let what = format!("{name} ({m},{k},{n}) from row {row0}");
                            assert_bits_eq(&buf[1..1 + len], &expect, &what);
                            assert!(buf[1 + len..].iter().all(|&v| v == 7.0), "{what}: overran");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_lanes_poison_exactly_what_the_naive_loop_poisons() {
        // NaN/±∞ in one row of `a` (a whole transpose block and a padded
        // one), in one column of `b`, and a `0 × ∞` — in a row group's
        // last row and in a ragged group's rows.
        let poisons = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for n in [1, 2, 6, 7, 15, 17, 31] {
            for k in [17, 65] {
                for m in [15, 33] {
                    for round in 0..poisons.len() {
                        let mut a = vals(m * k, 60 + n);
                        let mut b = vals(k * n, 61 + k);
                        a[15.min(m - 1) * k + 3] = poisons[round];
                        a[(m - 1) * k + k - 1] = poisons[(round + 1) % 3];
                        a[(m / 2) * k + 16] = 0.0;
                        b[16 * n + n - 1] = poisons[(round + 2) % 3];
                        b[16 * n] = f32::INFINITY;
                        let expect = naive(&a, &b, m, k, n);
                        for (name, body) in narrow_bodies(&b, k, n) {
                            let mut out = vec![0.0f32; m * n];
                            body(&a, 0, &mut out);
                            let what = format!("{name} ({m},{k},{n}) round {round}");
                            assert_same_poison(&out, &expect, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packed_matches_naive_bitwise_on_edge_shapes() {
        for &(m, k, n) in
            &[(1, 1, 1), (8, 8, 32), (9, 7, 33), (17, 5, 31), (3, 0, 4), (1, 6, 40), (64, 3, 2)]
        {
            let a = vals(m * k, 1);
            let b = vals(k * n, 2);
            let expect = naive(&a, &b, m, k, n);
            for (name, family) in tile_families() {
                let bp = pack_for(family, &b, k, n, false);
                let mut out = vec![f32::NAN; m * n];
                matmul_packed_rows(&a, 0, &mut out, k, n, &bp);
                assert_bits_eq(&out, &expect, &format!("{name} ({m},{k},{n})"));
            }
        }
    }

    #[test]
    fn padded_panel_lanes_never_leak_nan() {
        // b's last column is NaN; with nr-padding the panel holds zeros
        // past it. Only the NaN column may be NaN in the output.
        let (m, k, n) = (4, 3, 17);
        let a = vals(m * k, 3);
        let mut b = vals(k * n, 4);
        for kk in 0..k {
            b[kk * n + (n - 1)] = f32::NAN;
        }
        let bp = pack_b(&b, k, n);
        let mut out = vec![0.0f32; m * n];
        matmul_packed_rows(&a, 0, &mut out, k, n, &bp);
        for r in 0..m {
            for c in 0..n - 1 {
                assert!(!out[r * n + c].is_nan(), "NaN leaked into column {c}");
            }
            assert!(out[r * n + n - 1].is_nan(), "real NaN column must propagate");
        }
    }

    /// Bitwise, except that two NaNs match whatever their payloads
    /// (scalar and vector adds may pick different ones).
    fn assert_same_poison(got: &[f32], expect: &[f32], what: &str) {
        let same = got
            .iter()
            .zip(expect)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()));
        assert!(same, "{what} diverged from the naive kernel: {got:?} vs {expect:?}");
    }

    #[test]
    fn right_edge_panel_stores_exactly_its_real_lanes() {
        // The right-edge panel runs the full-panel loop on its zero
        // padding, so a padded lane holds `0 × a` — NaN under a poisoned
        // `a`. `out` arrives as NaN and is followed by a guard the kernel
        // does not own: every real element must be overwritten, nothing
        // past the last one touched, and NaN/±∞ in `b`'s last real
        // column, in the column before the edge and in one row of `a`
        // must reach exactly the outputs the naive loop poisons.
        const GUARD: usize = 64;
        let poisons = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        // Round 0 is clean; 1..=3 rotate the poisons through the places.
        let check =
            |name: &str, family: MatKernel, rows: usize, k: usize, n: usize, round: usize| {
                let nr = if family == MatKernel::Portable { 16 } else { 32 };
                let mut a = vals(rows * k, 40 + n);
                let mut b = vals(k * n, 41 + rows);
                if round > 0 {
                    let kk = k / 2;
                    b[kk * n + n - 1] = poisons[round % 3];
                    b[kk * n + (n / nr * nr).saturating_sub(1)] = poisons[(round + 1) % 3];
                    a[rows / 2 * k + kk] = poisons[(round + 2) % 3];
                }
                let expect = naive(&a, &b, rows, k, n);
                let bp = pack_for(family, &b, k, n, false);
                let mut buf = vec![f32::NAN; rows * n + GUARD];
                buf[rows * n..].fill(7.0);
                matmul_packed_rows(&a, 0, &mut buf[..rows * n], k, n, &bp);
                let what = format!("{name} ({rows},{k},{n}) round {round}");
                assert_same_poison(&buf[..rows * n], &expect, &what);
                assert!(buf[rows * n..].iter().all(|&v| v == 7.0), "{what}: wrote past the output");
            };
        for (name, family) in tile_families() {
            for n in [1, 2, 6, 15, 16, 17, 31, 32, 33, 40, 70] {
                for rows in [1, 3, 4, 7, 8, 9, 17] {
                    for k in [1, 5, 64] {
                        for round in 0..=poisons.len() {
                            check(name, family, rows, k, n, round);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pack_bt_matches_transposed_naive_bitwise() {
        // b is [n, p]: its pack must be, element for element, the pack of
        // the materialised transpose, and the product the naive a·bᵀ dot.
        for &(m, p, n) in &[
            (1, 1, 1),
            (2, 32, 32),
            (5, 7, 19),
            (6, 3, 40),
            (9, 0, 16),
            (3, 2, 6),
            (8, 6, 33),
            (4, 64, 70),
            (9, 257, 17),
        ] {
            let a = vals(m * p, 11);
            let b = vals(n * p, 12);
            let bt = transpose(&b, n, p);
            let expect = naive(&a, &bt, m, p, n);
            for (name, family) in tile_families() {
                let bp = pack_for(family, &b, p, n, true);
                assert_eq!(bp, pack_for(family, &bt, p, n, false), "{name} ({m},{p},{n}) panels");
                let mut out = vec![f32::NAN; m * n];
                matmul_packed_rows(&a, 0, &mut out, p, n, &bp);
                assert_bits_eq(&out, &expect, &format!("{name} ({m},{p},{n})"));
            }
        }
        // Row offset slices the left operand like a threaded chunk would.
        let (m, p, n) = (7, 5, 21);
        let a = vals(m * p, 13);
        let bp = pack_bt(&vals(n * p, 14), p, n);
        let mut full = vec![0.0f32; m * n];
        matmul_packed_rows(&a, 0, &mut full, p, n, &bp);
        let mut part = vec![0.0f32; (m - 3) * n];
        matmul_packed_rows(&a, 3, &mut part, p, n, &bp);
        assert_eq!(&full[3 * n..], &part[..]);
    }

    // The x86 bodies index through raw pointers: a short operand or a
    // ragged output from safe code must stop at the dispatcher.

    #[test]
    #[should_panic(expected = "matmul_packed_rows: operand extents")]
    fn packed_rows_reject_a_short_a() {
        let bp = pack_b(&vals(5 * 33, 1), 5, 33);
        matmul_packed_rows(&vals(8 * 5 - 1, 2), 0, &mut [0.0; 8 * 33], 5, 33, &bp);
    }

    #[test]
    #[should_panic(expected = "pack: operand extents")]
    fn pack_rejects_a_short_b() {
        pack_b(&vals(5 * 33 - 1, 1), 5, 33);
    }

    #[test]
    #[should_panic(expected = "pack: operand extents")]
    fn transposed_pack_rejects_a_short_b() {
        pack_bt(&vals(5 * 33 - 1, 1), 5, 33);
    }

    #[test]
    #[should_panic(expected = "matmul_packed_rows: operand extents")]
    fn packed_rows_reject_a_ragged_out() {
        let bp = pack_b(&vals(5 * 33, 1), 5, 33);
        matmul_packed_rows(&vals(8 * 5, 2), 0, &mut [0.0; 8 * 33 - 1], 5, 33, &bp);
    }

    #[test]
    #[should_panic(expected = "matmul_packed_rows: operand extents")]
    fn packed_rows_reject_a_pack_of_another_shape() {
        let bp = pack_b(&vals(5 * 33, 1), 5, 33);
        matmul_packed_rows(&vals(8 * 6, 2), 0, &mut [0.0; 8 * 33], 6, 33, &bp);
    }

    #[test]
    #[should_panic(expected = "matmul_simd_rows: operand extents")]
    fn simd_rows_reject_a_short_a() {
        // Rows 2.. of a 4-row product need all four rows of `a`.
        matmul_simd_rows(&vals(4 * 5 - 1, 2), 2, &mut [0.0; 2 * 33], 5, 33, &vals(5 * 33, 1));
    }

    #[test]
    #[should_panic(expected = "matmul_simd_rows: operand extents")]
    fn simd_rows_reject_a_short_b() {
        matmul_simd_rows(&vals(4 * 5, 2), 0, &mut [0.0; 4 * 33], 5, 33, &vals(5 * 33 - 1, 1));
    }

    #[test]
    #[should_panic(expected = "matmul_simd_rows: operand extents")]
    fn simd_rows_reject_a_ragged_out() {
        matmul_simd_rows(&vals(4 * 5, 2), 0, &mut [0.0; 4 * 33 - 1], 5, 33, &vals(5 * 33, 1));
    }

    #[test]
    fn simd_rows_match_naive_bitwise() {
        for &(m, k, n) in
            &[(1, 1, 1), (2, 17, 32), (5, 3, 19), (1, 6, 40), (3, 0, 4), (7, 9, 16), (2, 32, 6)]
        {
            let a = vals(m * k, 7);
            let b = vals(k * n, 8);
            let expect = naive(&a, &b, m, k, n);
            for (name, body) in rows_bodies() {
                let mut out = vec![f32::NAN; m * n];
                body(&a, k, &b, &mut out, n);
                assert_bits_eq(&out, &expect, &format!("{name} ({m},{k},{n})"));
            }
        }
    }

    type AtRows = fn(&[f32], usize, &mut [f32], usize, usize, usize, &[f32], bool);

    /// Every `aᵀ × b` body this host can run: the dispatched one, plus
    /// the bodies the dispatcher passes over here (portable always, ymm
    /// on an AVX-512 host).
    fn at_bodies() -> Vec<(&'static str, AtRows)> {
        let mut bodies: Vec<(&'static str, AtRows)> =
            vec![("dispatched", matmul_at_rows), ("portable", at_rows_portable)];
        #[cfg(target_arch = "x86_64")]
        if has_avx2_fma() {
            bodies.push(("avx2", |ad, row0, out, p, m, n, bd, carried| {
                // SAFETY: avx2 and fma were just detected, and the tests
                // below pass exactly the extents `matmul_at_rows` asserts.
                unsafe { x86::at_rows_avx2(ad, row0, out, p, m, n, bd, carried) }
            }));
        }
        bodies
    }

    /// Transposes `a: [p, m]` and runs the naive loop: the composition
    /// the kernels must match bitwise.
    fn at_naive(a: &[f32], b: &[f32], p: usize, m: usize, n: usize) -> Vec<f32> {
        naive(&transpose(a, p, m), b, m, p, n)
    }

    #[test]
    fn at_rows_match_transposed_naive_bitwise() {
        // `out` arrives NaN-filled: the kernel overwrites, it never
        // accumulates into what the caller passed. Then the same product
        // fed in two pieces, the second carried onto the first.
        let check = |p: usize, m: usize, n: usize| {
            let a = vals(p * m, 9);
            let b = vals(p * n, 10);
            let expect = at_naive(&a, &b, p, m, n);
            for (name, body) in at_bodies() {
                let mut out = vec![f32::NAN; m * n];
                body(&a, 0, &mut out, p, m, n, &b, false);
                assert_bits_eq(&out, &expect, &format!("{name} ({p},{m},{n})"));
                let cut = p / 2;
                out.fill(f32::NAN);
                body(&a[..cut * m], 0, &mut out, cut, m, n, &b[..cut * n], false);
                body(&a[cut * m..], 0, &mut out, p - cut, m, n, &b[cut * n..], true);
                assert_bits_eq(&out, &expect, &format!("{name} ({p},{m},{n}) cut at {cut}"));
            }
        };
        for &(p, m, n) in &[(1, 1, 1), (2, 17, 32), (4, 5, 19), (6, 1, 40), (3, 7, 16)] {
            check(p, m, n);
        }
        // Reduction lengths on both sides of every block boundary ×
        // column counts with no, only and mixed right-edge columns × row
        // counts below, at and above a lane group.
        const B: usize = AT_BLOCK;
        for p in [0, 1, B - 1, B, B + 1, 3 * B + 7] {
            for n in [1, 2, 6, 15, 16, 17, 40] {
                for m in [1, 3, 4, 5, 17, 64] {
                    check(p, m, n);
                }
            }
        }
        // The wide column tile: no, one and two 32-column blocks with
        // none, one whole vector and a right edge after them × row
        // counts around the zmm (8) and ymm (4) row blocks. `p = 0`: both
        // operands empty, the tile only zeroes (or reloads) and stores.
        for p in [0, 1, B - 1, B + 1, 2 * B + 3] {
            for n in [31, 32, 33, 48, 64, 65] {
                for m in [7, 8, 9, 16, 17] {
                    check(p, m, n);
                }
            }
        }
    }

    #[test]
    fn at_rows_row_offset_and_poison_match_naive_bitwise() {
        const B: usize = AT_BLOCK;
        // The Threaded backend's partition: rows 5.. of a 27-row product,
        // i.e. one full lane group of output rows plus a partial one.
        for &(p, m, n) in &[(2 * B + 3, 27, 22), (B, 27, 6), (7, 27, 35)] {
            let a = vals(p * m, 15);
            let b = vals(p * n, 16);
            let expect = at_naive(&a, &b, p, m, n);
            for (name, body) in at_bodies() {
                let mut part = vec![f32::NAN; (m - 5) * n];
                body(&a, 5, &mut part, p, m, n, &b, false);
                assert_bits_eq(&part, &expect[5 * n..], &format!("{name} row0=5 ({p},{m},{n})"));
            }
        }
        // NaN/±∞ in either operand, in the first block and in a later
        // one, must reach exactly the elements the naive loop poisons:
        // output row 2 (from `a`), column 18 (from `b`, a right-edge
        // column) and the `0 × ∞` at their neighbour. NaN payloads are
        // not compared — scalar and vector adds may pick different ones.
        let (p, m, n) = (2 * B + 5, 20, 19);
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for kk in [3, B + 1] {
                let mut a = vals(p * m, 17);
                let mut b = vals(p * n, 18);
                a[kk * m + 2] = poison;
                a[(kk + 1) * m + 17] = 0.0;
                b[(kk + 1) * n + 18] = poison;
                let expect = at_naive(&a, &b, p, m, n);
                assert!(expect[17 * n + 18].is_nan() && expect[n].is_finite());
                for (name, body) in at_bodies() {
                    let mut out = vec![0.0f32; m * n];
                    body(&a, 0, &mut out, p, m, n, &b, false);
                    assert_same_poison(&out, &expect, &format!("{name} {poison} at row {kk}"));
                }
            }
        }
    }

    /// `(p, m, n)` × cut points of the reduction axis for the carried
    /// tests: pieces shorter than, equal to and straddling a reduction
    /// block, an empty first, middle and last piece, one row at a time.
    fn carried_cases() -> Vec<([usize; 3], Vec<usize>)> {
        const B: usize = AT_BLOCK;
        vec![
            ([2 * B + 37, 20, 19], vec![B + 5]),
            ([2 * B + 37, 20, 19], vec![0, 3, 3, B, 2 * B + 37]),
            ([3 * B, 5, 40], vec![B, 2 * B]),
            ([7, 17, 2], vec![1, 2, 3, 4, 5, 6]),
            ([B + 1, 64, 1], vec![B]),
            ([90, 3, 33], vec![41]),
        ]
    }

    #[test]
    fn at_rows_fed_in_carried_pieces_match_one_shot_bitwise() {
        for ([p, m, n], cuts) in carried_cases() {
            for poison in [None, Some(f32::NAN), Some(f32::INFINITY)] {
                let mut a = vals(p * m, 41);
                let mut b = vals(p * n, 42);
                if let Some(v) = poison {
                    // One poisoned row of each operand, in different
                    // pieces for most cuts, and a `0 × ∞`.
                    a[(p / 3) * m + 1] = v;
                    a[(p - 1) * m + m - 1] = 0.0;
                    b[(p - 1) * n + n - 1] = v;
                }
                for (name, body) in at_bodies() {
                    let mut whole = vec![f32::NAN; m * n];
                    body(&a, 0, &mut whole, p, m, n, &b, false);
                    let mut pieces = vec![f32::NAN; m * n];
                    let mut lo = 0;
                    for hi in cuts.iter().copied().chain([p]) {
                        let (ap, bp) = (&a[lo * m..hi * m], &b[lo * n..hi * n]);
                        body(ap, 0, &mut pieces, hi - lo, m, n, bp, lo > 0);
                        lo = hi;
                    }
                    let what = format!("{name} ({p},{m},{n}) cut at {cuts:?}, {poison:?}");
                    assert_same_poison(&pieces, &whole, &what);
                    // A threaded chunk (output rows 1..) of the last
                    // piece continues its rows of `out` alone.
                    let hi = cuts[0];
                    let mut chunk = vec![f32::NAN; m * n];
                    body(&a[..hi * m], 0, &mut chunk, hi, m, n, &b[..hi * n], false);
                    body(&a[hi * m..], 1, &mut chunk[n..], p - hi, m, n, &b[hi * n..], true);
                    assert_same_poison(&chunk[n..], &whole[n..], &format!("{what}, rows 1.."));
                }
            }
        }
    }

    /// A column fold of `[rows, n]` (`n` columns, one group), or for
    /// `n == 1` the single-row fold the same reduction becomes.
    type ColFold = fn(&[f32], &mut [f32], usize, RedOp, bool);

    /// Every column-fold body this host can run, as [`at_bodies`].
    fn col_fold_bodies() -> Vec<(&'static str, ColFold)> {
        let mut bodies: Vec<(&'static str, ColFold)> = vec![
            ("dispatched", |a, out, rows, op, carried| match out.len() {
                1 => reduce_rows(a, 0, out, rows, op, None, carried),
                n => reduce_groups(a, 0, out, rows, n, op, None, carried),
            }),
            ("portable", |a, out, rows, op, carried| match out.len() {
                1 => reduce_rows_portable(a, 0, out, rows, op, None, carried),
                n => reduce_groups_portable(a, 0, out, rows, n, op, None, carried),
            }),
        ];
        #[cfg(target_arch = "x86_64")]
        if has_avx2_fma() {
            // SAFETY: avx2 was just detected; the bodies read `rows × n`
            // elements of `a`, which the test below passes.
            bodies.push(("avx2", |a, out, rows, op, carried| match out.len() {
                1 => unsafe { x86::reduce_rows_avx2(a, 0, out, rows, op, None, carried) },
                n => unsafe { x86::reduce_groups_avx2(a, 0, out, rows, n, op, None, carried) },
            }));
        }
        bodies
    }

    #[test]
    fn column_folds_fed_in_carried_pieces_match_one_shot_bitwise() {
        for ([rows, _, n], cuts) in carried_cases() {
            for poison in [None, Some(f32::NAN), Some(f32::INFINITY), Some(f32::NEG_INFINITY)] {
                let mut a = vals(rows * n, 43);
                if let Some(v) = poison {
                    a[(rows / 3) * n] = v;
                    a[(rows - 1) * n + n - 1] = -v;
                }
                for op in [RedOp::Sum, RedOp::Max] {
                    let expect = naive_reduce(&a, 1, rows, n, op, None);
                    for (name, body) in col_fold_bodies() {
                        let mut pieces = vec![f32::NAN; n];
                        let mut lo = 0;
                        for hi in cuts.iter().copied().chain([rows]) {
                            body(&a[lo * n..hi * n], &mut pieces, hi - lo, op, lo > 0);
                            lo = hi;
                        }
                        let what =
                            format!("{name} {op:?} ({rows},{n}) cut at {cuts:?}, {poison:?}");
                        assert_same_poison(&pieces, &expect, &what);
                    }
                }
            }
        }
        // Many rows at once (`inner == 1`, lanes across rows): each row's
        // fold continues its own slot.
        let (rows, mid) = (37, 11);
        let a = vals(rows * 2 * mid, 44);
        let halves: Vec<f32> = a.chunks(2 * mid).flat_map(|r| r[..mid].to_vec()).collect();
        let rest: Vec<f32> = a.chunks(2 * mid).flat_map(|r| r[mid..].to_vec()).collect();
        for op in [RedOp::Sum, RedOp::Max] {
            let expect = naive_reduce(&a, rows, 2 * mid, 1, op, None);
            let mut out = vec![f32::NAN; rows];
            reduce_rows(&halves, 0, &mut out, mid, op, None, false);
            reduce_rows(&rest, 0, &mut out, mid, op, None, true);
            assert_bits_eq(&out, &expect, &format!("rows {op:?} in two pieces"));
        }
    }

    #[test]
    fn row_offset_matches_full_product() {
        let (m, k, n) = (12, 9, 34);
        let a = vals(m * k, 5);
        let b = vals(k * n, 6);
        let bp = pack_b(&b, k, n);
        let mut full = vec![0.0f32; m * n];
        matmul_packed_rows(&a, 0, &mut full, k, n, &bp);
        // Compute rows 5.. separately, as a threaded chunk would.
        let mut part = vec![0.0f32; (m - 5) * n];
        matmul_packed_rows(&a, 5, &mut part, k, n, &bp);
        assert_eq!(&full[5 * n..], &part[..]);
    }

    fn assert_bits_eq(got: &[f32], expect: &[f32], what: &str) {
        assert_eq!(got.len(), expect.len(), "{what}: length");
        let same = got.iter().zip(expect).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what} diverged from the naive fold: {got:?} vs {expect:?}");
    }

    #[test]
    fn reduce_rows_matches_naive_bitwise() {
        // Shapes cover full gather blocks (>=16 rows), remainders,
        // single rows, and zero-length folds.
        for &(rows, mid) in &[(1, 1), (33, 7), (16, 64), (5, 3), (40, 1), (7, 0), (18, 25)] {
            for &op in &[RedOp::Sum, RedOp::Max] {
                for &scale in &[None, Some(1.0 / mid.max(1) as f32)] {
                    let a = vals(rows * mid, 21);
                    let mut out = vec![f32::NAN; rows];
                    reduce_rows(&a, 0, &mut out, mid, op, scale, false);
                    let expect = naive_reduce(&a, rows, mid, 1, op, scale);
                    assert_bits_eq(&out, &expect, &format!("rows ({rows},{mid}) {op:?}"));
                }
            }
        }
        // Row offset slices like a threaded chunk would.
        let (rows, mid) = (37, 9);
        let a = vals(rows * mid, 22);
        let mut full = vec![0.0f32; rows];
        reduce_rows(&a, 0, &mut full, mid, RedOp::Sum, None, false);
        let mut part = vec![0.0f32; rows - 4];
        reduce_rows(&a, 4, &mut part, mid, RedOp::Sum, None, false);
        assert_eq!(&full[4..], &part[..]);
    }

    #[test]
    fn reduce_groups_matches_naive_bitwise() {
        for &(groups, mid, inner) in
            &[(1, 1, 1), (3, 7, 33), (2, 5, 16), (4, 0, 9), (2, 8, 3), (1, 12, 40)]
        {
            for &op in &[RedOp::Sum, RedOp::Max] {
                for &scale in &[None, Some(0.25f32)] {
                    let a = vals(groups * mid * inner, 23);
                    let mut out = vec![f32::NAN; groups * inner];
                    reduce_groups(&a, 0, &mut out, mid, inner, op, scale, false);
                    let expect = naive_reduce(&a, groups, mid, inner, op, scale);
                    assert_bits_eq(
                        &out,
                        &expect,
                        &format!("groups ({groups},{mid},{inner}) {op:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_max_handles_nan_and_infinities_like_the_scalar_fold() {
        // NaN poison in varying positions plus ±∞; the kernel must agree
        // bitwise with the scalar max_fold (NaN operands ignored, NaN
        // result only when every element is NaN).
        for &(rows, mid) in &[(17, 5), (20, 3)] {
            let mut a = vals(rows * mid, 31);
            a[0] = f32::NAN; // row 0 starts with NaN
            a[mid + (mid - 1)] = f32::NAN; // row 1 ends with NaN
            a[2 * mid] = f32::INFINITY;
            a[3 * mid] = f32::NEG_INFINITY;
            for v in a[4 * mid..5 * mid].iter_mut() {
                *v = f32::NAN; // row 4 all-NaN
            }
            let mut out = vec![0.0f32; rows];
            reduce_rows(&a, 0, &mut out, mid, RedOp::Max, None, false);
            let expect = naive_reduce(&a, rows, mid, 1, RedOp::Max, None);
            assert_bits_eq(&out, &expect, "NaN/∞ max rows");
            // NaN operands are ignored (as f32::max does), so an all-NaN
            // row keeps the -∞ seed.
            assert_eq!(out[4].to_bits(), f32::NEG_INFINITY.to_bits());

            let mut gout = vec![0.0f32; rows];
            // Same data seen as one group with inner == rows.
            reduce_groups(&a, 0, &mut gout, mid, rows, RedOp::Max, None, false);
            let gexpect = naive_reduce(&a, 1, mid, rows, RedOp::Max, None);
            assert_bits_eq(&gout, &gexpect, "NaN/∞ max groups");
        }
    }

    #[test]
    fn max_fold_pins_f32_max_nan_semantics() {
        assert_eq!(max_fold(1.0, f32::NAN).to_bits(), 1.0f32.to_bits());
        assert!(max_fold(f32::NAN, f32::NAN).is_nan());
        assert_eq!(max_fold(f32::NAN, 2.0).to_bits(), 2.0f32.to_bits());
        assert_eq!(max_fold(f32::NEG_INFINITY, f32::NAN).to_bits(), f32::NEG_INFINITY.to_bits());
        // The ±0 tie f32::max leaves unspecified is pinned: acc wins.
        assert_eq!(max_fold(0.0, -0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(max_fold(-0.0, 0.0).to_bits(), (-0.0f32).to_bits());
    }
}

//! Packed, register-tiled matmul microkernels and gathered reductions —
//! the only bodies [`crate::ops`] executes.
//!
//! The naive matmul ([`crate::reference::matmul`], kept as the test
//! oracle) streams `b` row by row and accumulates directly into the
//! output, which bounds it at one scalar fused multiply–add per element
//! per pass. The kernels here restructure the
//! *memory layout and instruction schedule only*: `b` is packed once
//! into [`PackedB`] column panels (`NR` columns wide, k-major within
//! each panel, zero-padded at the right edge), and the microkernel
//! holds an `MR × NR` accumulator tile in registers while sweeping `k`.
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
//! # Kernel families: one body, three instantiations
//!
//! Every kernel here is one `#[inline(always)]` `unsafe fn` generic over
//! the lane types of `crate::lanes` (`Tile` for products, `Lanes`
//! for reductions), whose docs state its safety condition; every entry
//! point asserts the extents it needs. [`select`] picks the family by
//! runtime CPU-feature detection, and each entry point runs the body on
//! that family's register inside the family's trampoline:
//!
//! * **AVX-512** — `__m512`, 8×32 tiles: 16 zmm accumulators plus 2 panel
//!   registers, `vfmadd` (two ports × 16 lanes × 2 flop a cycle).
//! * **AVX2** — `__m256`, 4×32 tiles; only when the host has `fma` too.
//! * **Portable** — `[f32; 16]`, 4×16 tiles, each lane the scalar step;
//!   a cold featureless trampoline, compiled for the baseline target.
//!
//! What a vector does not cover runs the same body: the `rows mod MR`
//! remainder rows on the tile with fewer rows; the last rows of a
//! reduction, the last slots of a group and right-edge rows under no
//! whole lane group at `One`, one lane. A right-edge panel whose `w`
//! real columns fit one vector keeps one accumulator per row.
//!
//! # Row lanes, packs and the `aᵀ × b` blocks
//!
//! An output `n < L` columns wide ([`MatKernel::lanes`]) — every policy
//! and value head — runs lanes across `L` *output rows*: each `L × L`
//! block of `a` is transposed in registers (`Tile::transpose`, a partial
//! block through a zero-padded copy) and column `c` takes
//! `t[kk] × b[kk][c]`, `b[kk][c]` broadcast, `kk` ascending. The packed
//! tile runs a narrow `n` there, the unpacked row kernel its `n mod L`
//! right edge; `crate::ops` never packs a row-major operand for a narrow
//! product. [`pack_bt`] fills the panels straight from the rows of
//! `g · wᵀ`'s `[n, k]` operand, and [`matmul_simd_rows`] runs the tile on a
//! row-major operand for the small products of a rollout.
//!
//! [`matmul_at_rows`] (`xᵀ · g`, reducing over 2,048–25,600 batch rows)
//! cuts the reduction into blocks of [`AT_BLOCK`] rows, outermost: every
//! output tile re-reads a block from cache and the partial sums are parked
//! in `out` between blocks (the first starts from `0.0`, later ones and a
//! `carried` piece reload it), so each operand streams from memory once.
//! Its leading columns run on the packed kernel's register tile fed `b`'s
//! rows and `a`'s columns (eight independent accumulators keep both FMA
//! ports busy), its `n mod L` right edge on lanes across output rows. None
//! of this touches the bit-identity argument: an element keeps one
//! accumulator taking `a[kk][i] × b[kk][j]` for `kk` ascending by one
//! fused multiply–add, and parking it in `out` stores and reloads the
//! same `f32`.

use std::ops::Range;
use std::sync::OnceLock;

use crate::lanes::{dispatch, Lanes, One, Tile};

/// Which microkernel family [`select`] chose for this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatKernel {
    /// 8×32 zmm register tiles (`avx512f`, which includes FMA).
    Avx512,
    /// 4×32 ymm register tiles (`avx2` and `fma`).
    Avx2,
    /// 4×16 tiles of 16-lane arrays, no CPU feature needed.
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

/// Whether this host can run the ymm instantiations: their products are
/// `vfmadd`, so `avx2` alone is not enough. The one predicate behind
/// [`select`] and behind every test that runs the ymm instantiation.
#[cfg(target_arch = "x86_64")]
pub(crate) fn has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// The family every [`select`] returns: detected by the first one, or
/// set by a [`pin`] before it.
static KERNEL: OnceLock<MatKernel> = OnceLock::new();

/// Returns the microkernel family for this host, detected once: the
/// widest of [`families`].
pub fn select() -> MatKernel {
    *KERNEL.get_or_init(|| families()[0])
}

/// Every family this host runs, widest first; `Portable` is always
/// last.
#[doc(hidden)]
pub fn families() -> Vec<MatKernel> {
    let mut families = Vec::with_capacity(3);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            families.push(MatKernel::Avx512);
        }
        if has_avx2_fma() {
            families.push(MatKernel::Avx2);
        }
    }
    families.push(MatKernel::Portable);
    families
}

/// Makes `family` the one every [`select`] of this process returns, when
/// no kernel has selected one yet and the host runs it: a whole run on
/// one lane family (the pinned equivalence runs take each in turn, a
/// process apiece). Returns whether [`select`] now returns `family`.
#[doc(hidden)]
pub fn pin(family: MatKernel) -> bool {
    families().contains(&family) && *KERNEL.get_or_init(|| family) == family
}

/// The family for a body that gathers lanes `stride` floats apart:
/// [`select`]'s, unless `16 · stride` overflows the 32-bit gather
/// offsets of the x86 families (the portable gather's are not 32-bit).
pub(crate) fn gather_family(stride: usize) -> MatKernel {
    if stride.saturating_mul(16) <= i32::MAX as usize {
        select()
    } else {
        MatKernel::Portable
    }
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
    kernel: MatKernel,
}

impl PackedB {
    /// Consumes the pack, returning its panels to the thread-local
    /// buffer pool they were drawn from ([`crate::alloc`]) — what keeps
    /// a per-call pack from allocating in steady state.
    pub fn recycle(self) {
        crate::alloc::give(self.data);
    }
}

/// Packs a row-major `[k, n]` matrix into [`PackedB`] panels for this
/// host's microkernel. Cost is one copy of `b`, paid once per weight
/// version by whoever holds its [`crate::ops::Panels`] (a learn pass, an
/// acting seat) or once per call for an ad-hoc large product; the
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

/// Packs `bd` (row-major `[k, n]`, or `[n, k]` when `transposed`) for
/// a named tile family. Private: [`matmul_packed_rows`] runs the family
/// a pack records, so only [`select`]'s answer (or, in tests, a family
/// whose CPU feature was just detected) may be passed.
fn pack_for(kernel: MatKernel, bd: &[f32], k: usize, n: usize, transposed: bool) -> PackedB {
    let nr = dispatch!(kernel, V => V::NR);
    assert!(bd.len() >= k * n, "pack: operand extents");
    msrl_telemetry::static_counter!("tensor.pack_b").add(1);
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
    PackedB { data, k, n, kernel }
}

/// Computes the first `out_rows.len()/n` rows of `a × b` into
/// `out_rows` from the packed representation of `b`, overwriting every
/// element (the buffer need not be zeroed). Bit-identical to the naive
/// kernel; the signature mirrors [`matmul_simd_rows`].
///
/// # Panics
///
/// Panics when `bp` was not packed from a `[k, n]` matrix, `out_rows`
/// is not whole rows or `a` ends before the last of them — the bodies
/// index unchecked.
pub fn matmul_packed_rows(a: &[f32], out_rows: &mut [f32], k: usize, n: usize, bp: &PackedB) {
    if n == 0 || out_rows.is_empty() {
        return;
    }
    assert!(
        (bp.k, bp.n) == (k, n)
            && out_rows.len().is_multiple_of(n)
            && a.len() >= out_rows.len() / n * k,
        "matmul_packed_rows: operand extents"
    );
    let panels = &bp.data[..];
    dispatch!(bp.kernel, V => {
        // SAFETY: the assert above and the pack's own length (`panels ×
        // k × nr`, private, `nr` the family's `NR`) bound every index the
        // body forms.
        unsafe { tile::<V, { V::MR }, { V::NR / V::L }>(a, k, panels, out_rows, n) }
    });
}

/// Computes the first `out_rows.len()/n` rows of `a × b` into
/// `out_rows` straight from the row-major `[k, n]` operand `bd` — no
/// packing. SIMD lanes run across output columns; per element the
/// accumulation is the exact naive sequence, so results are
/// bit-identical to [`crate::reference::matmul`].
///
/// # Panics
///
/// Panics when `out_rows` is not whole rows, `a` ends before the last
/// of them or `bd` is shorter than `k × n` — the bodies index unchecked.
pub fn matmul_simd_rows(a: &[f32], out_rows: &mut [f32], k: usize, n: usize, bd: &[f32]) {
    if n == 0 || out_rows.is_empty() {
        return;
    }
    assert!(
        out_rows.len().is_multiple_of(n) && a.len() >= out_rows.len() / n * k && bd.len() >= k * n,
        "matmul_simd_rows: operand extents"
    );
    dispatch!(select(), V => {
        // SAFETY: the assert above bounds every index the body forms.
        unsafe { rows::<V, { V::MR }>(a, k, bd, out_rows, n) }
    });
}

/// Rows of the reduction axis the `aᵀ × b` row kernels sweep before
/// moving to the next output tile. 256 rows of both operands fit L2 up
/// to 256 columns each (2 × 256 KB), so each operand streams from
/// memory once however many output tiles re-read the block.
pub const AT_BLOCK: usize = 256;

/// Like [`matmul_simd_rows`], but for `aᵀ × b` without materialising
/// the transpose: `ad` is the row-major `[p, m]` matrix whose *columns*
/// are the left operand's rows. The first `out_rows.len()/n` output rows
/// land in `out_rows` (`[.., n]`), overwriting every element. Per-element
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
/// `out_rows` reaches past row `m` — the bodies index unchecked.
#[allow(clippy::too_many_arguments)]
pub fn matmul_at_rows(
    ad: &[f32],
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
            && out_rows.len() / n <= m,
        "matmul_at_rows: operand extents"
    );
    dispatch!(select(), V => {
        // SAFETY: the assert above bounds every index the body forms.
        unsafe {
            at_rows::<V, { V::MR }, { V::NR / V::L }>(ad, out_rows, p, m, n, bd, carried)
        }
    });
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

/// Row reductions (`inner == 1`): `out[r] = fold(ad[r·mid ..
/// (r+1)·mid])`, then optionally `· scale` — the single-pass
/// epilogue of a mean, applied to each output element right after its
/// own fold finishes (the same per-element multiply a separate rescale
/// traversal would perform).
///
/// Each output element is a whole-row fold with a serial dependency, so
/// the vector kernels put lanes across *rows*: one stride-`mid` gather
/// per ascending `m` step feeds a full block of row accumulators, and
/// every row keeps the scalar ascending-index fold order exactly.
///
/// With `carried`, each fold starts from what `out` already holds
/// instead of the identity: `out` is the same fold over the elements
/// that precede these `mid` along the reduced axis, and the two pieces
/// together are bit-identical to one fold over both (`scale` belongs to
/// the last piece only).
///
/// # Panics
///
/// Panics when `ad` ends before row `out.len()` — the bodies index
/// unchecked.
pub fn reduce_rows(
    ad: &[f32],
    out: &mut [f32],
    mid: usize,
    op: RedOp,
    scale: Option<f32>,
    carried: bool,
) {
    if out.is_empty() {
        return;
    }
    let need = out.len().checked_mul(mid);
    assert!(need.is_some_and(|need| ad.len() >= need), "reduce_rows: operand extents");
    let kernel = gather_family(mid);
    let a = ad.as_ptr();
    dispatch!(kernel, V => {
        // SAFETY: the assert above bounds every index the body forms, and
        // `mid · L` fits the gather's offsets.
        unsafe { fold_slots::<V, true>(a, out, (mid, 1), mid, (op, scale, carried)) }
    });
}

/// Group reductions (`inner > 1`): `out` is whole groups of `inner`
/// output slots, group `g` covering outer index `g`;
/// `out[g·inner + i] = fold(ad[(g·mid + m)·inner + i])` over
/// ascending `m`, then optionally `· scale`.
///
/// Output slots along `inner` are contiguous and independent, so lanes
/// run straight across them with plain vector loads; each slot keeps
/// its scalar ascending-`m` fold order. `carried` as in [`reduce_rows`]:
/// a `[rows, n]` column sum fed in consecutive row blocks is one group
/// whose slots continue from `out`.
///
/// # Panics
///
/// Panics when `out` is not whole groups or `ad` ends before group
/// `out.len() / inner` — the bodies index unchecked.
pub fn reduce_groups(
    ad: &[f32],
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
    let need = (out.len() / inner).checked_mul(mid).and_then(|rows| rows.checked_mul(inner));
    assert!(
        out.len().is_multiple_of(inner) && need.is_some_and(|need| ad.len() >= need),
        "reduce_groups: operand extents"
    );
    let a = ad.as_ptr();
    dispatch!(select(), V => {
        for (g, group) in out.chunks_exact_mut(inner).enumerate() {
            // SAFETY: the assert above bounds every index the body forms.
            unsafe {
                let a = a.add(g * mid * inner);
                fold_slots::<V, false>(a, group, (1, inner), mid, (op, scale, carried));
            }
        }
    });
}

/// The one accumulator loop of every vector product: output rows `..rows`
/// (at most `MR`) × `NV` vectors of columns over `k` steps. Step `kk`
/// broadcasts `a[r·ar + kk·ak]` for row `r` (strides `(k, 1)`: a row-major
/// left operand; `(1, m)`: a `[p, m]` one's columns) and loads
/// `b[kk·bk ..]`. With `resume` the accumulators start from `o` (then
/// readable over all `NV` vectors a row). Stores lanes `..w` a row.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn panel<V: Tile, const MR: usize, const NV: usize>(
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
    let mut acc = [[V::splat(0.0); NV]; MR];
    if resume {
        for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
            for (v, slot) in acc_r.iter_mut().enumerate() {
                *slot = V::load(o.add(r * n + v * V::L));
            }
        }
    }
    for kk in 0..k {
        let mut bvs = [V::splat(0.0); NV];
        for (v, bv) in bvs.iter_mut().enumerate() {
            *bv = V::load(b.add(kk * bk + v * V::L));
        }
        for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
            let av = V::splat(*a.add(r * ar + kk * ak));
            for (slot, &bv) in acc_r.iter_mut().zip(&bvs) {
                *slot = av.fmadd(bv, *slot);
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(rows) {
        for (v, &lanes) in acc_r.iter().enumerate() {
            lanes.store_first(o.add(r * n + v * V::L), V::L.min(w.saturating_sub(v * V::L)));
        }
    }
}

/// The packed product ([`matmul_packed_rows`]): `MR`-row blocks across
/// every [`PackedB`] panel — the zero-padded right edge included, on one
/// vector when its `w` real columns fit one, else `NV` — storing only the
/// `w` real lanes; the `rows mod MR` remainder on the same tile with fewer
/// rows. A product narrower than a vector runs on row lanes.
#[inline(always)]
unsafe fn tile<V: Tile, const MR: usize, const NV: usize>(
    a: &[f32],
    k: usize,
    bp: &[f32],
    out: &mut [f32],
    n: usize,
) {
    let rows = out.len() / n;
    let (a, bp, o) = (a.as_ptr(), bp.as_ptr(), out.as_mut_ptr());
    if n < V::L {
        return lanes::<V>(a, k, rows, bp, V::NR, o, n, n);
    }
    let full = rows - rows % MR;
    for i in (0..full).step_by(MR) {
        tile_rows::<V, MR, NV>(a.add(i * k), k, bp, o.add(i * n), n, MR);
    }
    if full < rows {
        tile_rows::<V, MR, NV>(a.add(full * k), k, bp, o.add(full * n), n, rows - full);
    }
}

/// `rows` (at most `MR`) output rows of [`tile`] across every panel.
#[inline(always)]
unsafe fn tile_rows<V: Tile, const MR: usize, const NV: usize>(
    a: *const f32,
    k: usize,
    bp: *const f32,
    o: *mut f32,
    n: usize,
    rows: usize,
) {
    for p in 0..n.div_ceil(V::NR) {
        let w = V::NR.min(n - p * V::NR);
        let (b, o) = (bp.add(p * k * V::NR), o.add(p * V::NR));
        if w <= V::L {
            panel::<V, MR, 1>(a, (k, 1), b, V::NR, k, o, n, w, rows, false);
        } else {
            panel::<V, MR, NV>(a, (k, 1), b, V::NR, k, o, n, w, rows, false);
        }
    }
}

/// The unpacked product ([`matmul_simd_rows`]): `MR` output rows × one
/// vector of columns on the register tile, straight from the row-major
/// `b`, then the `n mod L` right-edge columns on row lanes.
#[inline(always)]
unsafe fn rows<V: Tile, const MR: usize>(
    a: &[f32],
    k: usize,
    bd: &[f32],
    out: &mut [f32],
    n: usize,
) {
    let rows = out.len() / n;
    let tail0 = n - n % V::L;
    let (a, b, o) = (a.as_ptr(), bd.as_ptr(), out.as_mut_ptr());
    for r0 in (0..rows).step_by(MR) {
        let (ar, or, rm) = (a.add(r0 * k), o.add(r0 * n), MR.min(rows - r0));
        for j in (0..tail0).step_by(V::L) {
            panel::<V, MR, 1>(ar, (k, 1), b.add(j), n, k, or.add(j), n, V::L, rm, false);
        }
    }
    if tail0 < n {
        lanes::<V>(a, k, rows, b.add(tail0), n, o.add(tail0), n, n - tail0);
    }
}

/// `W` row-lane columns of one row group (`rows` of them) swept over all
/// `k` steps, `b` at the sweep's first column: one accumulator per column,
/// `t[kk] × b[kk·bk + c]` (broadcast) for `kk` ascending.
#[inline(always)]
unsafe fn lane_group<V: Tile, const W: usize>(
    a: *const f32,
    k: usize,
    rows: usize,
    mut b: *const f32,
    bk: usize,
) -> [V; W] {
    let mut acc = [V::splat(0.0); W];
    for kk0 in (0..k).step_by(V::L) {
        let kw = k - kk0;
        for &av in V::transpose(a.add(kk0), k, rows, kw.min(V::L)).as_ref().iter().take(kw) {
            for (c, slot) in acc.iter_mut().enumerate() {
                *slot = av.fmadd(V::splat(*b.add(c)), *slot);
            }
            b = b.wrapping_add(bk);
        }
    }
    acc
}

/// Row lanes (module docs): output columns `..w` (`w < L`) of rows
/// `..rows` at `o` (row stride `n`) from `a` (row stride `k`) and `b`
/// (element `(kk, c)` at `b[kk·bk + c]`), lanes across `L` output rows.
/// Up to eight columns (every head of the ledger) keep their accumulators
/// in registers over the whole sweep of a row group; a wider edge takes a
/// second sweep for the rest.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn lanes<V: Tile>(
    a: *const f32,
    k: usize,
    rows: usize,
    b: *const f32,
    bk: usize,
    o: *mut f32,
    n: usize,
    w: usize,
) {
    // `spill[c][l]` is `o[(i0 + l)·n + c]` (`L` is at most 16), read back
    // through the arrays: indexed through a pointer, the scatter below
    // vectorises into a gather per row, a third of a narrow head's time.
    let mut spill = [[0.0f32; 16]; 16];
    for i0 in (0..rows).step_by(V::L) {
        let (a, rl) = (a.add(i0 * k), V::L.min(rows - i0));
        for c0 in (0..w).step_by(8) {
            let (b, cols) = (b.add(c0), &mut spill[c0..]);
            // The column count is a type parameter: a group's
            // accumulators are an array the compiler keeps in registers.
            macro_rules! sweep {
                ($w:literal) => {
                    for (col, v) in cols.iter_mut().zip(lane_group::<V, $w>(a, k, rl, b, bk)) {
                        v.store(col.as_mut_ptr());
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

/// The transpose-free `aᵀ × b` ([`matmul_at_rows`]; module docs): per
/// reduction block, the column lanes on the register tile (`NV` vectors
/// wide, then one), then the right-edge columns on row lanes — whole
/// groups of `L` rows at `V`, the rows left over at [`One`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn at_rows<V: Tile, const MR: usize, const NV: usize>(
    ad: &[f32],
    out: &mut [f32],
    p: usize,
    m: usize,
    n: usize,
    bd: &[f32],
    carried: bool,
) {
    let rows = out.len() / n;
    let tail0 = n - n % V::L;
    let lane_rows = rows - rows % V::L;
    let (ap, bp, op) = (ad.as_ptr(), bd.as_ptr(), out.as_mut_ptr());
    let mut k0 = 0;
    // The first block runs even when `p == 0`, so `out` is always
    // overwritten.
    loop {
        let k1 = (k0 + AT_BLOCK).min(p);
        let resume = k0 > 0 || carried;
        let mut j = 0;
        while j < tail0 {
            let wide = tail0 - j >= V::NR;
            for r0 in (0..rows).step_by(MR) {
                // `wrapping_add`: with `p == 0` both operands are empty
                // and no step dereferences these.
                let a = ap.wrapping_add(k0 * m + r0);
                let (b, o) = (bp.wrapping_add(k0 * n + j), op.add(r0 * n + j));
                let rm = MR.min(rows - r0);
                if wide {
                    panel::<V, MR, NV>(a, (1, m), b, n, k1 - k0, o, n, V::NR, rm, resume);
                } else {
                    panel::<V, MR, 1>(a, (1, m), b, n, k1 - k0, o, n, V::L, rm, resume);
                }
            }
            j += if wide { V::NR } else { V::L };
        }
        let edge = (m, n, tail0);
        at_row_lanes::<V>(ap, bp, op, edge, 0..lane_rows, k0..k1, resume);
        at_row_lanes::<One>(ap, bp, op, edge, lane_rows..rows, k0..k1, resume);
        k0 = k1;
        if k0 >= p {
            break;
        }
    }
}

/// The right-edge columns `tail0..n` of output rows `rows` (whole groups
/// of `V::L`) over reduction rows `ks`: lanes across output rows, up to
/// four columns at a time, held transposed (lane `l` of `acc[c]` is
/// `out[i0 + l][j + c]`) and scattered into `out` at the end.
#[inline(always)]
unsafe fn at_row_lanes<V: Lanes>(
    ap: *const f32,
    bp: *const f32,
    op: *mut f32,
    (m, n, tail0): (usize, usize, usize),
    rows: Range<usize>,
    ks: Range<usize>,
    resume: bool,
) {
    const RB: usize = 4;
    // Lane staging; `L` is at most 16.
    let mut t = [0.0f32; 16];
    for i0 in rows.step_by(V::L) {
        for j in (tail0..n).step_by(RB) {
            let cm = RB.min(n - j);
            let mut acc = [V::splat(0.0); RB];
            if resume {
                for (c, acc_c) in acc.iter_mut().take(cm).enumerate() {
                    for (l, slot) in t.iter_mut().take(V::L).enumerate() {
                        *slot = *op.add((i0 + l) * n + j + c);
                    }
                    *acc_c = V::load(t.as_ptr());
                }
            }
            for kk in ks.clone() {
                let av = V::load(ap.add(kk * m + i0));
                for (c, acc_c) in acc.iter_mut().take(cm).enumerate() {
                    *acc_c = av.fmadd(V::splat(*bp.add(kk * n + j + c)), *acc_c);
                }
            }
            for (c, acc_c) in acc.iter().take(cm).enumerate() {
                acc_c.store(t.as_mut_ptr());
                for (l, &v) in t.iter().take(V::L).enumerate() {
                    *op.add((i0 + l) * n + j + c) = v;
                }
            }
        }
    }
}

/// The slots of `out`, `V::L` at a time and the rest at [`One`]: slot `s`
/// folds `a[s·lane + m·step]` over ascending `m < mid` from the identity,
/// or from `out[s]` when `carried`, then is scaled. `GATHER` reads a
/// block's lanes at stride `lane` (rows), else contiguously (`lane` = 1).
#[inline(always)]
unsafe fn fold_slots<V: Lanes, const GATHER: bool>(
    a: *const f32,
    out: &mut [f32],
    strides: (usize, usize),
    mid: usize,
    how: (RedOp, Option<f32>, bool),
) {
    let (o, whole) = (out.as_mut_ptr(), out.len() - out.len() % V::L);
    for s in (0..whole).step_by(V::L) {
        fold_block::<V, GATHER>(a, o.add(s), s, strides, mid, how);
    }
    for s in whole..out.len() {
        fold_block::<One, GATHER>(a, o.add(s), s, strides, mid, how);
    }
}

/// One block of [`fold_slots`]: slots `s..s + V::L`, stored at `o`.
#[inline(always)]
unsafe fn fold_block<V: Lanes, const GATHER: bool>(
    a: *const f32,
    o: *mut f32,
    s: usize,
    (lane, step): (usize, usize),
    mid: usize,
    (op, scale, carried): (RedOp, Option<f32>, bool),
) {
    let src = a.add(s * lane);
    let mut acc = if carried { V::load(o) } else { V::splat(op.init()) };
    for m in 0..mid {
        let p = src.add(m * step);
        let v = if GATHER { V::gather(p, lane) } else { V::load(p) };
        acc = match op {
            RedOp::Sum => acc.add(v),
            RedOp::Max => acc.max_fold(v),
        };
    }
    if let Some(s) = scale {
        acc = acc.mul(V::splat(s));
    }
    acc.store(o);
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

    type Rows = Box<dyn Fn(&[f32], usize, &[f32], &mut [f32], usize)>;

    /// Every unpacked row body this host can run, as [`tile_families`]:
    /// the dispatched entry point, then the body on each instantiation the
    /// dispatcher passes over here.
    fn rows_bodies() -> Vec<(&'static str, Rows)> {
        let dispatched: Rows = Box::new(|a, k, b, out, n| matmul_simd_rows(a, out, k, n, b));
        let mut bodies = vec![("dispatched", dispatched)];
        for (name, family) in tile_families().into_iter().skip(1) {
            let body: Rows = Box::new(move |a: &[f32], k, b: &[f32], out: &mut [f32], n| {
                // SAFETY: `family` was detected, and the tests pass exactly
                // the extents `matmul_simd_rows` asserts.
                dispatch!(family, V => unsafe { rows::<V, { V::MR }>(a, k, b, out, n) })
            });
            bodies.push((name, body));
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
                        matmul_packed_rows(&a, &mut out, k, n, &bp);
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
                        body(&at, &mut out, k, m, n, &b, false);
                        assert_bits_eq(&out, &expect, &format!("{name} aᵀ·b ({m},{k},{n})"));
                    }
                }
            }
        }
    }

    /// One product body over a fixed right operand: `a · b` into the
    /// given output.
    type Narrow = Box<dyn Fn(&[f32], &mut [f32])>;

    /// Every body that runs an output narrower than its vector on row
    /// lanes, or a right edge of one: the packed tiles (narrow `n`) and
    /// the unpacked row kernels (`n mod L` edge), each family called by
    /// name.
    fn narrow_bodies(b: &[f32], k: usize, n: usize) -> Vec<(String, Narrow)> {
        let mut bodies: Vec<(String, Narrow)> = Vec::new();
        for (name, family) in tile_families() {
            let bp = pack_for(family, b, k, n, false);
            bodies.push((
                format!("{name} packed"),
                Box::new(move |a, out| matmul_packed_rows(a, out, k, n, &bp)),
            ));
        }
        for (name, body) in rows_bodies() {
            let b = past_one(b);
            bodies.push((
                format!("{name} row-major"),
                Box::new(move |a, out| body(a, k, &b[1..], out, n)),
            ));
        }
        bodies
    }

    /// `v` one float into a new allocation: `&past_one(v)[1..]` is `v`
    /// starting one float past where its buffer does (no vector-aligned
    /// address).
    fn past_one(v: &[f32]) -> Vec<f32> {
        [f32::NAN].iter().chain(v).copied().collect()
    }

    #[test]
    fn row_lanes_match_naive_bitwise_on_the_grid() {
        // Widths below, at and past every lane count (1 … 31) × row counts
        // around a row group (16) with ragged last groups × reduction
        // lengths around a transpose block, padded or whole. Each product
        // whole, from an odd row offset (an unaligned sub-slice of `a`
        // and of `out`) and whole with `a` one float past its allocation
        // (as the row-major `b` always is), `out` arriving NaN and followed
        // by a guard; the tall one (a learn block's height) from the
        // offset only, which keeps the debug suite short.
        const GUARD: usize = 16;
        for n in [1, 2, 3, 6, 7, 15, 17, 31] {
            for k in [1, 2, 4, 16, 17, 64, 65, 256] {
                let b = vals(k * n, 51 + n);
                let bodies = narrow_bodies(&b, k, n);
                for m in [1, 7, 15, 16, 17, 33, 2053] {
                    let a = vals(m * k, 50 + k);
                    let a_past = past_one(&a);
                    let offset = (m / 2) | 1;
                    let starts: Vec<(&[f32], usize)> = if m > 64 {
                        vec![(&a, offset)]
                    } else {
                        vec![(&a, 0), (&a, offset), (&a_past[1..], 0)]
                    };
                    for (a, row0) in starts.into_iter().filter(|&(_, r)| r < m) {
                        let a = &a[row0 * k..];
                        let expect = naive(a, &b, m - row0, k, n);
                        for (name, body) in &bodies {
                            let len = expect.len();
                            let mut buf = vec![f32::NAN; 1 + len + GUARD];
                            buf[1 + len..].fill(7.0);
                            body(a, &mut buf[1..1 + len]);
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
                            body(&a, &mut out);
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
            // And both operands one float past their allocations.
            let (a_past, b_past) = (past_one(&a), past_one(&b));
            for (name, family) in tile_families() {
                for (a, b) in [(&a[..], &b[..]), (&a_past[1..], &b_past[1..])] {
                    let bp = pack_for(family, b, k, n, false);
                    let mut out = vec![f32::NAN; m * n];
                    matmul_packed_rows(a, &mut out, k, n, &bp);
                    assert_bits_eq(&out, &expect, &format!("{name} ({m},{k},{n})"));
                }
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
        matmul_packed_rows(&a, &mut out, k, n, &bp);
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
                matmul_packed_rows(&a, &mut buf[..rows * n], k, n, &bp);
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
                matmul_packed_rows(&a, &mut out, p, n, &bp);
                assert_bits_eq(&out, &expect, &format!("{name} ({m},{p},{n})"));
            }
        }
    }

    // The bodies index through raw pointers: a short operand or a
    // ragged output from safe code must stop at the dispatcher.

    #[test]
    #[should_panic(expected = "matmul_packed_rows: operand extents")]
    fn packed_rows_reject_a_short_a() {
        let bp = pack_b(&vals(5 * 33, 1), 5, 33);
        matmul_packed_rows(&vals(8 * 5 - 1, 2), &mut [0.0; 8 * 33], 5, 33, &bp);
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
        matmul_packed_rows(&vals(8 * 5, 2), &mut [0.0; 8 * 33 - 1], 5, 33, &bp);
    }

    #[test]
    #[should_panic(expected = "matmul_packed_rows: operand extents")]
    fn packed_rows_reject_a_pack_of_another_shape() {
        let bp = pack_b(&vals(5 * 33, 1), 5, 33);
        matmul_packed_rows(&vals(8 * 6, 2), &mut [0.0; 8 * 33], 6, 33, &bp);
    }

    #[test]
    #[should_panic(expected = "matmul_simd_rows: operand extents")]
    fn simd_rows_reject_a_short_a() {
        // A 4-row product needs all four rows of `a`.
        matmul_simd_rows(&vals(4 * 5 - 1, 2), &mut [0.0; 4 * 33], 5, 33, &vals(5 * 33, 1));
    }

    #[test]
    #[should_panic(expected = "matmul_simd_rows: operand extents")]
    fn simd_rows_reject_a_short_b() {
        matmul_simd_rows(&vals(4 * 5, 2), &mut [0.0; 4 * 33], 5, 33, &vals(5 * 33 - 1, 1));
    }

    #[test]
    #[should_panic(expected = "matmul_simd_rows: operand extents")]
    fn simd_rows_reject_a_ragged_out() {
        matmul_simd_rows(&vals(4 * 5, 2), &mut [0.0; 4 * 33 - 1], 5, 33, &vals(5 * 33, 1));
    }

    #[test]
    #[should_panic(expected = "reduce_rows: operand extents")]
    fn reduce_rows_reject_a_short_a() {
        // The last of 16 rows of 5 is one element short: a 16-row gather
        // would read past it.
        reduce_rows(&vals(16 * 5 - 1, 1), &mut [0.0; 16], 5, RedOp::Sum, None, false);
    }

    #[test]
    #[should_panic(expected = "reduce_groups: operand extents")]
    fn reduce_groups_reject_a_short_a() {
        // Group 1's last step loads 16 slots, one past the operand.
        let mut out = [0.0; 2 * 16];
        reduce_groups(&vals(2 * 3 * 16 - 1, 1), &mut out, 3, 16, RedOp::Max, None, false);
    }

    #[test]
    #[should_panic(expected = "reduce_groups: operand extents")]
    fn reduce_groups_reject_a_ragged_out() {
        reduce_groups(&vals(3 * 3 * 16, 1), &mut [0.0; 2 * 16 + 1], 3, 16, RedOp::Sum, None, false);
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

    type AtRows = Box<dyn Fn(&[f32], &mut [f32], usize, usize, usize, &[f32], bool)>;

    /// Every `aᵀ × b` body this host can run, as [`rows_bodies`].
    fn at_bodies() -> Vec<(&'static str, AtRows)> {
        let mut bodies: Vec<(&'static str, AtRows)> =
            vec![("dispatched", Box::new(matmul_at_rows))];
        for (name, family) in tile_families().into_iter().skip(1) {
            let body: AtRows =
                Box::new(move |ad: &[f32], out: &mut [f32], p, m, n, bd: &[f32], c| {
                    // SAFETY: `family` was detected, and the tests pass exactly
                    // the extents `matmul_at_rows` asserts.
                    dispatch!(family, V => unsafe {
                        at_rows::<V, { V::MR }, { V::NR / V::L }>(ad, out, p, m, n, bd, c)
                    })
                });
            bodies.push((name, body));
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
        // fed in two pieces, the second carried onto the first, and from
        // operands that start one float past their allocations.
        let check = |p: usize, m: usize, n: usize| {
            let a = vals(p * m, 9);
            let b = vals(p * n, 10);
            let expect = at_naive(&a, &b, p, m, n);
            for (name, body) in at_bodies() {
                let mut out = vec![f32::NAN; m * n];
                body(&a, &mut out, p, m, n, &b, false);
                assert_bits_eq(&out, &expect, &format!("{name} ({p},{m},{n})"));
                let cut = p / 2;
                out.fill(f32::NAN);
                body(&a[..cut * m], &mut out, cut, m, n, &b[..cut * n], false);
                body(&a[cut * m..], &mut out, p - cut, m, n, &b[cut * n..], true);
                assert_bits_eq(&out, &expect, &format!("{name} ({p},{m},{n}) cut at {cut}"));
                // Both operands one float past their allocations.
                let (a_past, b_past) = (past_one(&a), past_one(&b));
                body(&a_past[1..], &mut out, p, m, n, &b_past[1..], false);
                assert_bits_eq(&out, &expect, &format!("{name} ({p},{m},{n}) unaligned"));
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
    fn at_rows_poison_matches_naive_bitwise() {
        const B: usize = AT_BLOCK;
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
                    body(&a, &mut out, p, m, n, &b, false);
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
                    body(&a, &mut whole, p, m, n, &b, false);
                    let mut pieces = vec![f32::NAN; m * n];
                    let mut lo = 0;
                    for hi in cuts.iter().copied().chain([p]) {
                        let (ap, bp) = (&a[lo * m..hi * m], &b[lo * n..hi * n]);
                        body(ap, &mut pieces, hi - lo, m, n, bp, lo > 0);
                        lo = hi;
                    }
                    let what = format!("{name} ({p},{m},{n}) cut at {cuts:?}, {poison:?}");
                    assert_same_poison(&pieces, &whole, &what);
                }
            }
        }
    }

    /// A column fold of `[rows, n]` (`n` columns, one group), or for
    /// `n == 1` the single-row fold the same reduction becomes.
    type ColFold = Box<dyn Fn(&[f32], &mut [f32], usize, RedOp, bool)>;

    /// Every column-fold body this host can run, as [`rows_bodies`].
    fn col_fold_bodies() -> Vec<(&'static str, ColFold)> {
        tile_families()
            .into_iter()
            .map(|(name, family)| {
                let body: ColFold =
                    Box::new(move |a: &[f32], out: &mut [f32], rows, op, carried| {
                        // SAFETY: `family` was detected; the tests pass `rows ×
                        // out.len()` elements of `a`, the extents the entry
                        // points assert.
                        dispatch!(family, V => unsafe {
                            let (a, how) = (a.as_ptr(), (op, None, carried));
                            match out.len() {
                                1 => fold_slots::<V, true>(a, out, (rows, 1), rows, how),
                                n => fold_slots::<V, false>(a, out, (1, n), rows, how),
                            }
                        })
                    });
                (name, body)
            })
            .collect()
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
            reduce_rows(&halves, &mut out, mid, op, None, false);
            reduce_rows(&rest, &mut out, mid, op, None, true);
            assert_bits_eq(&out, &expect, &format!("rows {op:?} in two pieces"));
        }
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
                    reduce_rows(&a, &mut out, mid, op, scale, false);
                    let expect = naive_reduce(&a, rows, mid, 1, op, scale);
                    assert_bits_eq(&out, &expect, &format!("rows ({rows},{mid}) {op:?}"));
                }
            }
        }
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
                    reduce_groups(&a, &mut out, mid, inner, op, scale, false);
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
            reduce_rows(&a, &mut out, mid, RedOp::Max, None, false);
            let expect = naive_reduce(&a, rows, mid, 1, RedOp::Max, None);
            assert_bits_eq(&out, &expect, "NaN/∞ max rows");
            // NaN operands are ignored (as f32::max does), so an all-NaN
            // row keeps the -∞ seed.
            assert_eq!(out[4].to_bits(), f32::NEG_INFINITY.to_bits());

            let mut gout = vec![0.0f32; rows];
            // Same data seen as one group with inner == rows.
            reduce_groups(&a, &mut gout, mid, rows, RedOp::Max, None, false);
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

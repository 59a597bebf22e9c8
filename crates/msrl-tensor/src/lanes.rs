//! Lane types and feature trampolines: what lets [`crate::kernels`] and
//! [`crate::fastmath`] write each kernel once.
//!
//! A kernel body is one `#[inline(always)]` `unsafe fn` generic over
//! [`Lanes`] (element-wise, fold and gather steps) or [`Tile`] (what a
//! product adds: the register tile's shape, a masked store, the `L × L`
//! transpose of the row lanes). Every body's safety condition: it runs
//! through [`dispatch!`] (the family's CPU features), from an entry point
//! that asserts every extent the body indexes. [`Zmm`] (`__m512`, 16
//! lanes), [`Ymm`] (`__m256`, 8) and [`Portable`] (`[f32; 16]`) are the
//! families of [`MatKernel`]; [`One`] (`[f32; 1]`) runs the tails of the
//! vector bodies and is the scalar `fastmath::fast_*`. An x86 step is one
//! instruction (or a fixed few), an array lane the scalar step, so a
//! body's operation sequence is the same on every type by construction.
//!
//! [`dispatch!`] turns a [`MatKernel`] into its type and runs the body in
//! that family's trampoline: [`on_avx512`] or [`on_avx2`], the only
//! `#[target_feature]` functions in the workspace, or [`on_portable`],
//! compiled for the baseline target, where `mul_add` is a libm `fmaf` call
//! (the same bits, slower). The body, the trait methods and the intrinsics
//! all inline into an x86 trampoline's instance, so there every `mul_add`
//! is a `vfmadd`; CI disassembles the release rlibs and fails if an
//! instance calls anything but a panic path, `memset` or the log-softmax
//! rows' one libm `logf` a row. [`widest`] lends code that is not a lane
//! body the same trampolines.
//!
//! [`MatKernel`]: crate::kernels::MatKernel

use crate::kernels::{max_fold, select};

/// One register's worth of `f32` lanes and the steps a kernel body takes
/// on them; each does on every lane the IEEE operation the scalar step
/// does. Binary steps take `self` as the first operand.
///
/// # Safety
///
/// A method may run only on a host with the implementing type's CPU
/// features: inside its trampoline for [`Zmm`] and [`Ymm`], anywhere for
/// the arrays. Pointer arguments must be valid for every lane the method
/// reads or writes (any alignment).
pub(crate) trait Lanes: Copy {
    /// Lanes per value.
    const L: usize;
    unsafe fn splat(x: f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    /// Lane `l` is `p[l·stride]`, with `L · stride` at most `i32::MAX`.
    unsafe fn gather(p: *const f32, stride: usize) -> Self;
    /// `self · b + c`, rounded once.
    unsafe fn fmadd(self, b: Self, c: Self) -> Self;
    /// `c − self · b`, rounded once.
    unsafe fn fnmadd(self, b: Self, c: Self) -> Self;
    unsafe fn add(self, b: Self) -> Self;
    unsafe fn sub(self, b: Self) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    unsafe fn div(self, b: Self) -> Self;
    /// SSE `minps`: `if self < b { self } else { b }`, so `b` when either
    /// is NaN.
    unsafe fn min(self, b: Self) -> Self;
    /// SSE `maxps`: `if self > b { self } else { b }`.
    unsafe fn max(self, b: Self) -> Self;
    /// [`max_fold`] on every lane.
    unsafe fn max_fold(self, v: Self) -> Self;
    /// `if self ⋈ b { t } else { f }`, `⋈` the ordered comparison `CMP`
    /// names ([`EQ`], [`LT`] or [`LE`]): false when either is NaN.
    unsafe fn select<const CMP: i32>(self, b: Self, t: Self, f: Self) -> Self;
    /// Rounds toward −∞.
    unsafe fn floor(self) -> Self;
    /// `2^z` for integral `z` in `[−127, 127]`: `z` truncated to an
    /// integer, plus the bias, shifted into the exponent field.
    unsafe fn pow2(self) -> Self;
    /// The sign bit cleared.
    unsafe fn abs(self) -> Self;
    /// The sign bit flipped.
    unsafe fn neg(self) -> Self;
    /// `x`'s sign bit OR-ed into `self`.
    unsafe fn or_sign(self, x: Self) -> Self;
}

/// A [`Lanes`] type that is a kernel family's register (safety as for
/// [`Lanes`]).
pub(crate) trait Tile: Lanes {
    /// Output rows of the register tile.
    const MR: usize;
    /// Columns of a [`crate::kernels::PackedB`] panel.
    const NR: usize;
    /// `L` values: an `L × L` block transposed.
    type Block: AsRef<[Self]>;
    /// Stores lanes `..n` (`n` at most `L`) at `p`, nothing past them.
    unsafe fn store_first(self, p: *mut f32, n: usize);
    /// Columns `..kw` of rows `..rows` (both at most `L`) of the row-major
    /// `a` (row stride `k`), transposed: lane `l` of value `kk` is
    /// `a[l·k + kk]`. Lanes past `rows` and values past `kw` are zero.
    unsafe fn transpose(a: *const f32, k: usize, rows: usize, kw: usize) -> Self::Block;
}

/// The AVX-512 family's register.
#[cfg(target_arch = "x86_64")]
pub(crate) type Zmm = std::arch::x86_64::__m512;
/// The AVX2 family's register.
#[cfg(target_arch = "x86_64")]
pub(crate) type Ymm = std::arch::x86_64::__m256;
/// The portable family's register: 16 lanes, each the scalar step.
pub(crate) type Portable = [f32; 16];
/// One lane: the tails of the vector bodies and the scalar `fast_*`.
pub(crate) type One = [f32; 1];

/// [`Lanes::select`]'s `==` (the `_CMP_EQ_OQ` predicate).
pub(crate) const EQ: i32 = 0x00;
/// [`Lanes::select`]'s `<` (`_CMP_LT_OQ`).
pub(crate) const LT: i32 = 0x11;
/// [`Lanes::select`]'s `<=` (`_CMP_LE_OQ`).
pub(crate) const LE: i32 = 0x12;

/// Lane `l` of `v` into `p[l·stride]`: a row-lane body's column back
/// into a row-major matrix.
///
/// # Safety
///
/// As for [`Lanes`]: `p` valid for every lane's element.
#[inline(always)]
pub(crate) unsafe fn scatter<V: Lanes>(v: V, p: *mut f32, stride: usize) {
    let mut lanes = [0.0f32; 16];
    v.store(lanes.as_mut_ptr());
    for (l, &x) in lanes.iter().enumerate().take(V::L) {
        *p.add(l * stride) = x;
    }
}

/// Runs `f`, and every always-inlined body it reaches, with AVX-512F (and
/// the AVX2 and FMA it implies) enabled.
///
/// # Safety
///
/// The host must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn on_avx512<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// As [`on_avx512`], with AVX2 and FMA.
///
/// # Safety
///
/// The host must support `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn on_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// The portable family's: out of line and cold, so its instances, which
/// an AVX2 host never runs, sit apart from the hot code and its pages.
#[cold]
#[inline(never)]
pub(crate) fn on_portable<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Runs `$body` with `$V` the [`Tile`] type of the family `$kernel` names,
/// inside its trampoline. Pass only [`select`]'s answer or a family whose
/// features were just detected.
macro_rules! dispatch {
    ($kernel:expr, $V:ident => $body:expr) => {
        match $kernel {
            #[cfg(target_arch = "x86_64")]
            $crate::kernels::MatKernel::Avx512 => {
                type $V = $crate::lanes::Zmm;
                let body = $crate::lanes::inlined(
                    #[inline(always)]
                    || $body,
                );
                // SAFETY: a family reaches a dispatch only after its
                // features were detected (`select`, or the family a pack
                // recorded from it).
                unsafe { $crate::lanes::on_avx512(body) }
            }
            #[cfg(target_arch = "x86_64")]
            $crate::kernels::MatKernel::Avx2 => {
                type $V = $crate::lanes::Ymm;
                let body = $crate::lanes::inlined(
                    #[inline(always)]
                    || $body,
                );
                // SAFETY: as for the AVX-512 arm.
                unsafe { $crate::lanes::on_avx2(body) }
            }
            _ => {
                type $V = $crate::lanes::Portable;
                $crate::lanes::on_portable(
                    #[inline(always)]
                    || $body,
                )
            }
        }
    };
}
pub(crate) use dispatch;

/// `f` itself: lets a `let` hold an `#[inline(always)]` closure (the only
/// kind sure to inline into a trampoline), an attribute allowed on an argument.
#[inline(always)]
pub(crate) fn inlined<R, F: FnOnce() -> R>(f: F) -> F {
    f
}

/// Runs `f` in the trampoline of this host's family ([`select`]): on x86 its
/// `mul_add`s become one instruction and its loops vectorise at the family's
/// width. Pass `#[inline(always)] || …`, or `f` may stay a featureless call.
pub fn widest<R>(f: impl FnOnce() -> R) -> R {
    dispatch!(select(), _V => f())
}

/// `N` lanes of the scalar step: [`Portable`] (16) and [`One`] (1).
impl<const N: usize> Lanes for [f32; N] {
    const L: usize = N;
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        [x; N]
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        p.cast::<Self>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<Self>().write_unaligned(self);
    }
    #[inline(always)]
    unsafe fn gather(p: *const f32, stride: usize) -> Self {
        std::array::from_fn(|l| *p.add(l * stride))
    }
    #[inline(always)]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        std::array::from_fn(|l| self[l].mul_add(b[l], c[l]))
    }
    #[inline(always)]
    unsafe fn fnmadd(self, b: Self, c: Self) -> Self {
        std::array::from_fn(|l| self[l].mul_add(-b[l], c[l]))
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        std::array::from_fn(|l| self[l] + b[l])
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        std::array::from_fn(|l| self[l] - b[l])
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        std::array::from_fn(|l| self[l] * b[l])
    }
    #[inline(always)]
    unsafe fn div(self, b: Self) -> Self {
        std::array::from_fn(|l| self[l] / b[l])
    }
    #[inline(always)]
    unsafe fn min(self, b: Self) -> Self {
        std::array::from_fn(|l| if self[l] < b[l] { self[l] } else { b[l] })
    }
    #[inline(always)]
    unsafe fn max(self, b: Self) -> Self {
        std::array::from_fn(|l| if self[l] > b[l] { self[l] } else { b[l] })
    }
    #[inline(always)]
    unsafe fn max_fold(self, v: Self) -> Self {
        std::array::from_fn(|l| max_fold(self[l], v[l]))
    }
    #[inline(always)]
    unsafe fn select<const CMP: i32>(self, b: Self, t: Self, f: Self) -> Self {
        std::array::from_fn(|l| {
            let (x, y) = (self[l], b[l]);
            let holds = match CMP {
                EQ => x == y,
                LT => x < y,
                _ => x <= y,
            };
            if holds {
                t[l]
            } else {
                f[l]
            }
        })
    }
    #[inline(always)]
    unsafe fn floor(self) -> Self {
        self.map(f32::floor)
    }
    #[inline(always)]
    unsafe fn pow2(self) -> Self {
        self.map(|z| f32::from_bits((((z as i32) + 127) << 23) as u32))
    }
    #[inline(always)]
    unsafe fn abs(self) -> Self {
        self.map(|x| f32::from_bits(x.to_bits() & 0x7fff_ffff))
    }
    #[inline(always)]
    unsafe fn neg(self) -> Self {
        self.map(|x| f32::from_bits(x.to_bits() ^ 0x8000_0000))
    }
    #[inline(always)]
    unsafe fn or_sign(self, x: Self) -> Self {
        std::array::from_fn(|l| f32::from_bits(self[l].to_bits() | (x[l].to_bits() & 0x8000_0000)))
    }
}

impl Tile for Portable {
    const MR: usize = 4;
    const NR: usize = 16;
    type Block = [Self; 16];
    #[inline(always)]
    unsafe fn store_first(self, p: *mut f32, n: usize) {
        for (l, &v) in self.iter().enumerate().take(n) {
            *p.add(l) = v;
        }
    }
    #[inline(always)]
    unsafe fn transpose(a: *const f32, k: usize, rows: usize, kw: usize) -> Self::Block {
        let mut t = [[0.0f32; 16]; 16];
        for (kk, col) in t.iter_mut().enumerate().take(kw) {
            for (l, slot) in col.iter_mut().enumerate().take(rows) {
                *slot = *a.add(l * k + kk);
            }
        }
        t
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The two x86 registers. Bit operations run on integer vectors, whose
    //! `and`/`or`/`xor` need only `avx512f`.

    use std::arch::x86_64::*;

    use super::{Lanes, Tile};

    /// `_MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC` for `roundscale`.
    const FLOOR: i32 = 0x09;

    impl Lanes for __m512 {
        const L: usize = 16;
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm512_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self);
        }
        #[inline(always)]
        unsafe fn gather(p: *const f32, stride: usize) -> Self {
            let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            _mm512_i32gather_ps::<4>(_mm512_mullo_epi32(lane, _mm512_set1_epi32(stride as i32)), p)
        }
        #[inline(always)]
        unsafe fn fmadd(self, b: Self, c: Self) -> Self {
            _mm512_fmadd_ps(self, b, c)
        }
        #[inline(always)]
        unsafe fn fnmadd(self, b: Self, c: Self) -> Self {
            _mm512_fnmadd_ps(self, b, c)
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm512_add_ps(self, b)
        }
        #[inline(always)]
        unsafe fn sub(self, b: Self) -> Self {
            _mm512_sub_ps(self, b)
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm512_mul_ps(self, b)
        }
        #[inline(always)]
        unsafe fn div(self, b: Self) -> Self {
            _mm512_div_ps(self, b)
        }
        #[inline(always)]
        unsafe fn min(self, b: Self) -> Self {
            _mm512_min_ps(self, b)
        }
        #[inline(always)]
        unsafe fn max(self, b: Self) -> Self {
            _mm512_max_ps(self, b)
        }
        #[inline(always)]
        unsafe fn max_fold(self, v: Self) -> Self {
            let take = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, self)
                | _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(self, self);
            _mm512_mask_blend_ps(take, self, v)
        }
        #[inline(always)]
        unsafe fn select<const CMP: i32>(self, b: Self, t: Self, f: Self) -> Self {
            _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<CMP>(self, b), f, t)
        }
        #[inline(always)]
        unsafe fn floor(self) -> Self {
            _mm512_roundscale_ps::<FLOOR>(self)
        }
        #[inline(always)]
        unsafe fn pow2(self) -> Self {
            let z = _mm512_add_epi32(_mm512_cvttps_epi32(self), _mm512_set1_epi32(127));
            _mm512_castsi512_ps(_mm512_slli_epi32::<23>(z))
        }
        #[inline(always)]
        unsafe fn abs(self) -> Self {
            let bits = _mm512_and_si512(_mm512_castps_si512(self), _mm512_set1_epi32(i32::MAX));
            _mm512_castsi512_ps(bits)
        }
        #[inline(always)]
        unsafe fn neg(self) -> Self {
            let bits = _mm512_xor_si512(_mm512_castps_si512(self), _mm512_set1_epi32(i32::MIN));
            _mm512_castsi512_ps(bits)
        }
        #[inline(always)]
        unsafe fn or_sign(self, x: Self) -> Self {
            let sign = _mm512_and_si512(_mm512_castps_si512(x), _mm512_set1_epi32(i32::MIN));
            _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(self), sign))
        }
    }

    impl Tile for __m512 {
        const MR: usize = 8;
        const NR: usize = 32;
        type Block = [Self; 16];
        #[inline(always)]
        unsafe fn store_first(self, p: *mut f32, n: usize) {
            _mm512_mask_storeu_ps(p, (0xffff_u32 >> (16 - n)) as u16, self);
        }
        /// A whole block is read as 128-bit row pieces, four of them
        /// (rows `s`, `4 + s`, `8 + s`, `12 + s`) to a register, which
        /// leaves one 4 × 4 transpose inside each 128-bit lane: two rounds
        /// of in-lane unpacks, 32 shuffles where a register-to-register
        /// transpose takes 64. A partial block is first copied into a
        /// zero-padded one by masked loads.
        #[inline(always)]
        unsafe fn transpose(a: *const f32, k: usize, rows: usize, kw: usize) -> Self::Block {
            if rows < 16 || kw < 16 {
                let mut pad = [0.0f32; 16 * 16];
                let cols = (0xffff_u32 >> (16 - kw)) as u16;
                for r in 0..rows {
                    _mm512_maskz_loadu_ps(cols, a.add(r * k)).store(pad.as_mut_ptr().add(r * 16));
                }
                return transpose16(pad.as_ptr(), 16);
            }
            transpose16(a, k)
        }
    }

    /// The whole-block body of the zmm transpose, rows at `stride`.
    #[inline(always)]
    unsafe fn transpose16(src: *const f32, stride: usize) -> [__m512; 16] {
        let mut t = [_mm512_setzero_ps(); 16];
        for q in 0..4 {
            // Lane `g` of `w[s]` is `a[4g + s][4q .. 4q + 4]`.
            let mut w = [_mm512_setzero_ps(); 4];
            for (s, ws) in w.iter_mut().enumerate() {
                let piece = |g: usize| _mm_loadu_ps(src.add((4 * g + s) * stride + 4 * q));
                let mut v = _mm512_castps128_ps512(piece(0));
                v = _mm512_insertf32x4::<1>(v, piece(1));
                v = _mm512_insertf32x4::<2>(v, piece(2));
                *ws = _mm512_insertf32x4::<3>(v, piece(3));
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

    /// Lanes `..n` set, as an AVX2 mask.
    #[inline(always)]
    unsafe fn first_lanes(n: usize) -> __m256i {
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    impl Lanes for __m256 {
        const L: usize = 8;
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self);
        }
        #[inline(always)]
        unsafe fn gather(p: *const f32, stride: usize) -> Self {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_i32gather_ps::<4>(p, _mm256_mullo_epi32(lane, _mm256_set1_epi32(stride as i32)))
        }
        #[inline(always)]
        unsafe fn fmadd(self, b: Self, c: Self) -> Self {
            _mm256_fmadd_ps(self, b, c)
        }
        #[inline(always)]
        unsafe fn fnmadd(self, b: Self, c: Self) -> Self {
            _mm256_fnmadd_ps(self, b, c)
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm256_add_ps(self, b)
        }
        #[inline(always)]
        unsafe fn sub(self, b: Self) -> Self {
            _mm256_sub_ps(self, b)
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm256_mul_ps(self, b)
        }
        #[inline(always)]
        unsafe fn div(self, b: Self) -> Self {
            _mm256_div_ps(self, b)
        }
        #[inline(always)]
        unsafe fn min(self, b: Self) -> Self {
            _mm256_min_ps(self, b)
        }
        #[inline(always)]
        unsafe fn max(self, b: Self) -> Self {
            _mm256_max_ps(self, b)
        }
        #[inline(always)]
        unsafe fn max_fold(self, v: Self) -> Self {
            let take = _mm256_or_ps(
                _mm256_cmp_ps::<_CMP_GT_OQ>(v, self),
                _mm256_cmp_ps::<_CMP_UNORD_Q>(self, self),
            );
            _mm256_blendv_ps(self, v, take)
        }
        #[inline(always)]
        unsafe fn select<const CMP: i32>(self, b: Self, t: Self, f: Self) -> Self {
            _mm256_blendv_ps(f, t, _mm256_cmp_ps::<CMP>(self, b))
        }
        #[inline(always)]
        unsafe fn floor(self) -> Self {
            _mm256_floor_ps(self)
        }
        #[inline(always)]
        unsafe fn pow2(self) -> Self {
            let z = _mm256_add_epi32(_mm256_cvttps_epi32(self), _mm256_set1_epi32(127));
            _mm256_castsi256_ps(_mm256_slli_epi32::<23>(z))
        }
        #[inline(always)]
        unsafe fn abs(self) -> Self {
            let bits = _mm256_and_si256(_mm256_castps_si256(self), _mm256_set1_epi32(i32::MAX));
            _mm256_castsi256_ps(bits)
        }
        #[inline(always)]
        unsafe fn neg(self) -> Self {
            let bits = _mm256_xor_si256(_mm256_castps_si256(self), _mm256_set1_epi32(i32::MIN));
            _mm256_castsi256_ps(bits)
        }
        #[inline(always)]
        unsafe fn or_sign(self, x: Self) -> Self {
            let sign = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(i32::MIN));
            _mm256_castsi256_ps(_mm256_or_si256(_mm256_castps_si256(self), sign))
        }
    }

    impl Tile for __m256 {
        const MR: usize = 4;
        const NR: usize = 32;
        type Block = [Self; 8];
        #[inline(always)]
        unsafe fn store_first(self, p: *mut f32, n: usize) {
            _mm256_maskstore_ps(p, first_lanes(n), self);
        }
        /// The 8 × 8 counterpart of the zmm transpose: rows `s` and
        /// `4 + s` share a register, 16 in-lane shuffles.
        #[inline(always)]
        unsafe fn transpose(a: *const f32, k: usize, rows: usize, kw: usize) -> Self::Block {
            if rows < 8 || kw < 8 {
                let mut pad = [0.0f32; 8 * 8];
                for r in 0..rows {
                    let v = _mm256_maskload_ps(a.add(r * k), first_lanes(kw));
                    v.store(pad.as_mut_ptr().add(r * 8));
                }
                return transpose8(pad.as_ptr(), 8);
            }
            transpose8(a, k)
        }
    }

    /// The whole-block body of the ymm transpose, rows at `stride`.
    #[inline(always)]
    unsafe fn transpose8(src: *const f32, stride: usize) -> [__m256; 8] {
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
}

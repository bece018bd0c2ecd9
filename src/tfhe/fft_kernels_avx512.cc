/**
 * @file
 * AVX-512 tier (W = 8 doubles) of the batched negacyclic FFT kernels.
 * Compiled with -mavx512f -ffp-contract=off on x86-64; degrades to a
 * nullptr factory elsewhere. Only AVX-512F instructions are used
 * (loads, arithmetic, unpack/shuffle_f64x2, cvtepi32_pd), so the tier
 * runs on every AVX-512 part from Skylake-SP on. The lane tile's
 * gather is vpgatherdd, also AVX-512F.
 *
 * No FMA intrinsics — see the bit-identity contract in
 * fft_kernels_impl.h. The TU is also compiled with
 * -fvect-cost-model=dynamic, which vectorizes the plain integer loops
 * of fft_kernels_impl.h at 64-byte width.
 */

#include "tfhe/fft_kernels.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include "tfhe/fft_kernels_impl.h"

namespace morphling::tfhe::detail {
namespace {

struct Avx512Traits
{
    static constexpr unsigned kWidth = 8;
    using Vec = __m512d;

    static Vec load(const double *p) { return _mm512_loadu_pd(p); }
    static void store(double *p, Vec v) { _mm512_storeu_pd(p, v); }
    static Vec splat(double x) { return _mm512_set1_pd(x); }
    static Vec add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
    static Vec sub(Vec a, Vec b) { return _mm512_sub_pd(a, b); }
    static Vec mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }

    // GCC 12 implements the unmasked unpack, shuffle_f64x2, convert,
    // roundscale and gather intrinsics with an undefined source, which
    // -Wmaybe-uninitialized flags. Their zero-masking forms with every
    // lane selected compile to the same unmasked instructions.
    static constexpr __mmask8 kAll = 0xFF;
    static constexpr int kNearest =
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

    static Vec cvtInt32(const std::int32_t *p)
    {
        return _mm512_maskz_cvtepi32_pd(
            kAll, _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)));
    }

    typedef std::uint32_t UVec __attribute__((vector_size(64)));

    /** 16 lanes in one vpgatherdd: two positions of a lane tile. */
    static UVec gather(const Torus32 *p, UVec idx)
    {
        return (UVec)_mm512_mask_i32gather_epi32(
            _mm512_setzero_si512(), 0xFFFF, (__m512i)idx, p, 4);
    }

    /**
     * 8x8 in-register transpose in three stages: unpack adjacent rows
     * into 2-element column pairs, then two rounds of 128-bit chunk
     * shuffles (imm 0x88 picks chunks {0,2} of each source, 0xDD picks
     * {1,3}) that gather the pairs into full columns.
     */
    static void transpose(Vec *r)
    {
        const Vec t0 = _mm512_maskz_unpacklo_pd(kAll, r[0], r[1]);
        const Vec t1 = _mm512_maskz_unpackhi_pd(kAll, r[0], r[1]);
        const Vec t2 = _mm512_maskz_unpacklo_pd(kAll, r[2], r[3]);
        const Vec t3 = _mm512_maskz_unpackhi_pd(kAll, r[2], r[3]);
        const Vec t4 = _mm512_maskz_unpacklo_pd(kAll, r[4], r[5]);
        const Vec t5 = _mm512_maskz_unpackhi_pd(kAll, r[4], r[5]);
        const Vec t6 = _mm512_maskz_unpacklo_pd(kAll, r[6], r[7]);
        const Vec t7 = _mm512_maskz_unpackhi_pd(kAll, r[6], r[7]);

        const Vec u0 = _mm512_maskz_shuffle_f64x2(kAll, t0, t2, 0x88);
        const Vec u1 = _mm512_maskz_shuffle_f64x2(kAll, t1, t3, 0x88);
        const Vec u2 = _mm512_maskz_shuffle_f64x2(kAll, t0, t2, 0xDD);
        const Vec u3 = _mm512_maskz_shuffle_f64x2(kAll, t1, t3, 0xDD);
        const Vec u4 = _mm512_maskz_shuffle_f64x2(kAll, t4, t6, 0x88);
        const Vec u5 = _mm512_maskz_shuffle_f64x2(kAll, t5, t7, 0x88);
        const Vec u6 = _mm512_maskz_shuffle_f64x2(kAll, t4, t6, 0xDD);
        const Vec u7 = _mm512_maskz_shuffle_f64x2(kAll, t5, t7, 0xDD);

        r[0] = _mm512_maskz_shuffle_f64x2(kAll, u0, u4, 0x88);
        r[1] = _mm512_maskz_shuffle_f64x2(kAll, u1, u5, 0x88);
        r[2] = _mm512_maskz_shuffle_f64x2(kAll, u2, u6, 0x88);
        r[3] = _mm512_maskz_shuffle_f64x2(kAll, u3, u7, 0x88);
        r[4] = _mm512_maskz_shuffle_f64x2(kAll, u0, u4, 0xDD);
        r[5] = _mm512_maskz_shuffle_f64x2(kAll, u1, u5, 0xDD);
        r[6] = _mm512_maskz_shuffle_f64x2(kAll, u2, u6, 0xDD);
        r[7] = _mm512_maskz_shuffle_f64x2(kAll, u3, u7, 0xDD);
    }

    /** roundToTorus of each lane, bit for bit: the AVX2 tier's exact
     *  round-then-reduce sequence (see Avx2Traits::roundExact). */
    static __m256i roundExact(Vec v)
    {
        const Vec r = _mm512_maskz_roundscale_pd(kAll, v, kNearest);
        const Vec q = _mm512_maskz_roundscale_pd(
            kAll, _mm512_mul_pd(r, splat(0x1p-32)),
            _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
        const Vec m = _mm512_sub_pd(r, _mm512_mul_pd(q, splat(0x1p32)));
        return _mm256_xor_si256(
            _mm512_maskz_cvtpd_epi32(kAll, _mm512_sub_pd(m, splat(0x1p31))),
            _mm256_set1_epi32(INT32_MIN));
    }

    /**
     * p[0..8) += roundToTorus(v), bit for bit. When every lane has
     * |v| < 2^51, v + 1.5 * 2^52 lies in [2^52, 2^53], where the spacing
     * of doubles is 1: the add itself rounds v to nearest even (the
     * embedded rounding mode ignores MXCSR), and the low 32 bits of the
     * sum's encoding are round(v) mod 2^32 (vpmovqd keeps them). Any
     * other lane, NaN included, sends the vector through roundExact.
     */
    static void addRounded(Torus32 *p, Vec v)
    {
        const __mmask8 small = _mm512_mask_cmp_pd_mask(
            _mm512_cmp_pd_mask(v, splat(0x1p51), _CMP_LT_OQ), v,
            splat(-0x1p51), _CMP_GT_OQ);
        const __m256i u =
            small == kAll
                ? _mm512_maskz_cvtepi64_epi32(
                      kAll, _mm512_castpd_si512(_mm512_maskz_add_round_pd(
                                kAll, v, splat(0x1.8p52), kNearest)))
                : roundExact(v);
        __m256i *dst = reinterpret_cast<__m256i *>(p);
        _mm256_storeu_si256(dst,
                            _mm256_add_epi32(_mm256_loadu_si256(dst), u));
    }
};

} // namespace

const BatchKernels *
avx512BatchKernels()
{
    static const BatchKernels k = makeBatchKernels<Avx512Traits>("avx512");
    return &k;
}

} // namespace morphling::tfhe::detail

#else // !__AVX512F__

namespace morphling::tfhe::detail {

const BatchKernels *
avx512BatchKernels()
{
    return nullptr;
}

} // namespace morphling::tfhe::detail

#endif

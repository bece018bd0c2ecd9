/**
 * @file
 * AVX2 tier (W = 4 doubles) of the batched negacyclic FFT kernels.
 * Compiled with -mavx2 -ffp-contract=off on x86-64; on other targets
 * (or compilers without AVX2 support) the factory degrades to nullptr
 * and the dispatcher never offers the tier.
 *
 * No FMA intrinsics on purpose: separate mul/add keeps each lane's
 * rounding identical to the scalar tier (the bit-identity contract of
 * fft_kernels_impl.h). The TU is also compiled with
 * -fvect-cost-model=dynamic, which vectorizes the plain integer loops
 * of fft_kernels_impl.h at 32-byte width.
 */

#include "tfhe/fft_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "tfhe/fft_kernels_impl.h"

namespace morphling::tfhe::detail {
namespace {

struct Avx2Traits
{
    static constexpr unsigned kWidth = 4;
    using Vec = __m256d;

    static Vec load(const double *p) { return _mm256_loadu_pd(p); }
    static void store(double *p, Vec v) { _mm256_storeu_pd(p, v); }
    static Vec splat(double x) { return _mm256_set1_pd(x); }
    static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
    static Vec sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
    static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
    static Vec cvtInt32(const std::int32_t *p)
    {
        return _mm256_cvtepi32_pd(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    }

    typedef std::uint32_t UVec __attribute__((vector_size(32)));

    /** 8 lanes in one vpgatherdd: two positions of a lane tile. (The
     *  all-lanes masked form: the unmasked one starts from an undefined
     *  register, which -Wmaybe-uninitialized flags.) */
    static UVec gather(const Torus32 *p, UVec idx)
    {
        return (UVec)_mm256_mask_i32gather_epi32(
            _mm256_setzero_si256(), reinterpret_cast<const int *>(p),
            (__m256i)idx, _mm256_set1_epi32(-1), 4);
    }

    /** 4x4 in-register transpose (unpack pairs, then cross 128-bit
     *  lanes). */
    static void transpose(Vec *r)
    {
        const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);
        const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);
        const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
        const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
        r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
        r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
        r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
        r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
    }

    /**
     * roundToTorus of each lane, bit for bit. Round to nearest even
     * first, then reduce: m = r - floor(r * 2^-32) * 2^32 is exact and
     * lies in [0, 2^32), and m - 2^31 converts exactly to int32; the
     * sign-bit flip adds the 2^31 back mod 2^32. (Reducing before
     * rounding would round twice: -(1.5 - 2^-30) + 2^32 is not
     * representable and rounds to a tie.)
     */
    static __m128i roundExact(Vec v)
    {
        const Vec r = _mm256_round_pd(
            v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        const Vec q = _mm256_floor_pd(_mm256_mul_pd(r, splat(0x1p-32)));
        const Vec m = _mm256_sub_pd(r, _mm256_mul_pd(q, splat(0x1p32)));
        return _mm_xor_si128(
            _mm256_cvtpd_epi32(_mm256_sub_pd(m, splat(0x1p31))),
            _mm_set1_epi32(INT32_MIN));
    }

    /**
     * p[0..4) += roundToTorus(v), bit for bit. When every lane has
     * |v| < 2^51, v + 1.5 * 2^52 lies in [2^52, 2^53], where the spacing
     * of doubles is 1, so the add rounds v as llrint does (to nearest
     * even in the default mode) and the low 32 bits of the sum's
     * encoding are round(v) mod 2^32; one permute gathers them. Any
     * other lane, NaN included, sends the vector through roundExact.
     */
    static void addRounded(Torus32 *p, Vec v)
    {
        const Vec mag = _mm256_andnot_pd(splat(-0.0), v);
        const bool small = _mm256_movemask_pd(_mm256_cmp_pd(
                               mag, splat(0x1p51), _CMP_LT_OQ)) == 0xF;
        const __m128i u =
            small ? _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                        _mm256_castpd_si256(_mm256_add_pd(v, splat(0x1.8p52))),
                        _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6)))
                  : roundExact(v);
        __m128i *dst = reinterpret_cast<__m128i *>(p);
        _mm_storeu_si128(dst, _mm_add_epi32(_mm_loadu_si128(dst), u));
    }
};

} // namespace

const BatchKernels *
avx2BatchKernels()
{
    static const BatchKernels k = makeBatchKernels<Avx2Traits>("avx2");
    return &k;
}

} // namespace morphling::tfhe::detail

#else // !__AVX2__

namespace morphling::tfhe::detail {

const BatchKernels *
avx2BatchKernels()
{
    return nullptr;
}

} // namespace morphling::tfhe::detail

#endif

/**
 * @file
 * NEON tier (W = 2 doubles) of the batched negacyclic FFT kernels for
 * AArch64. Double-precision NEON arithmetic is part of the baseline
 * AArch64 profile, so no runtime feature probe is needed beyond being
 * on the architecture. Degrades to a nullptr factory elsewhere.
 *
 * No vfma intrinsics — see the bit-identity contract in
 * fft_kernels_impl.h (the TU is additionally compiled with
 * -ffp-contract=off so the compiler cannot contract the mul/add pairs
 * either).
 */

#include "tfhe/fft_kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "tfhe/fft_kernels_impl.h"

namespace morphling::tfhe::detail {
namespace {

struct NeonTraits
{
    static constexpr unsigned kWidth = 2;
    using Vec = float64x2_t;

    static Vec load(const double *p) { return vld1q_f64(p); }
    static void store(double *p, Vec v) { vst1q_f64(p, v); }
    static Vec splat(double x) { return vdupq_n_f64(x); }
    static Vec add(Vec a, Vec b) { return vaddq_f64(a, b); }
    static Vec sub(Vec a, Vec b) { return vsubq_f64(a, b); }
    static Vec mul(Vec a, Vec b) { return vmulq_f64(a, b); }
    static Vec cvtInt32(const std::int32_t *p)
    {
        return vcvtq_f64_s64(vmovl_s32(vld1_s32(p)));
    }

    /** 2x2 in-register transpose. */
    static void transpose(Vec *r)
    {
        const float64x2_t t0 = vzip1q_f64(r[0], r[1]);
        const float64x2_t t1 = vzip2q_f64(r[0], r[1]);
        r[0] = t0;
        r[1] = t1;
    }

    typedef std::uint32_t UVec __attribute__((vector_size(16)));

    /** Lane tile gather, one lane at a time (NEON has no gather). */
    static UVec gather(const Torus32 *p, UVec idx)
    {
        return UVec{p[idx[0]], p[idx[1]], p[idx[2]], p[idx[3]]};
    }

    /** Per-lane roundToTorus: the reference rounding, not vectorized. */
    static void addRounded(Torus32 *p, Vec v)
    {
        p[0] += roundToTorus(vgetq_lane_f64(v, 0));
        p[1] += roundToTorus(vgetq_lane_f64(v, 1));
    }
};

} // namespace

const BatchKernels *
neonBatchKernels()
{
    static const BatchKernels k = makeBatchKernels<NeonTraits>("neon");
    return &k;
}

} // namespace morphling::tfhe::detail

#else // !__aarch64__

namespace morphling::tfhe::detail {

const BatchKernels *
neonBatchKernels()
{
    return nullptr;
}

} // namespace morphling::tfhe::detail

#endif

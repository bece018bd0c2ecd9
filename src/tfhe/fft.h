/**
 * @file
 * Negacyclic FFT for T_q[X]/(X^N + 1).
 *
 * A polynomial product mod X^N + 1 equals pointwise multiplication of
 * the polynomials' evaluations at the odd powers of the primitive 2N-th
 * root of unity. For real coefficient sequences those 2N evaluations
 * have conjugate symmetry, so only N/2 of them are independent: the
 * whole transform folds into one complex FFT of size N/2 applied to the
 * "twisted" sequence
 *
 *     x_j = (a_j + i * a_{j + N/2}) * e^{i*pi*j/N},   j = 0..N/2-1.
 *
 * This is the folding the paper attributes to [39] (Klemsa) in Section
 * V-A3: an N-point negacyclic transform computed with a single
 * N/2-point FFT unit. The merge-split (two-polynomials-per-pass) trick
 * is a hardware throughput optimization and is modelled in src/arch; it
 * does not change the math here.
 *
 * NegacyclicFft is the one negacyclic engine. Its butterflies live in
 * the kernel template of fft_kernels_impl.h, instantiated once per SIMD
 * tier (W = 1, 2, 4, 8 lanes; see fft_dispatch.h): radix-4 stages with
 * one trailing radix-2 stage when log2(N/2) is odd, forward
 * decimation-in-frequency and inverse decimation-in-time, so no
 * bit-reversal pass ever runs. The spectrum lives in the stages'
 * base-4 digit-reversed order. That order is an internal convention of
 * the transform domain: every FourierPolynomial is produced and
 * consumed with the same permutation, and pointwise multiply/accumulate
 * commutes with any fixed permutation, so nothing outside the engine
 * ever needs to undo it. A batch of transforms runs W polynomials per
 * kernel call with their coefficients interleaved across vector lanes,
 * so every butterfly, including the small-span stages that defeat
 * within-polynomial vectorization, runs at full vector width; a lone
 * polynomial runs the W = 1 instantiation. Every tier is bit-identical
 * to the W = 1 one.
 *
 * ComplexFft, a plain radix-2 FFT in natural order, is the independent
 * reference the engine is tested against; the merge-split hardware
 * model (src/arch/functional/ms_fft) also runs on it.
 *
 * Precision: coefficients are carried as doubles. For every parameter
 * set in params.h the accumulated products stay within (or their
 * round-off stays far below) the 53-bit mantissa, so the FFT path is
 * bit-compatible with the schoolbook path up to noise that is orders of
 * magnitude below the decryption margin (tested in tests/test_fft.cc
 * and tests/test_workspace.cc).
 */

#ifndef MORPHLING_TFHE_FFT_H
#define MORPHLING_TFHE_FFT_H

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "tfhe/fft_kernels.h"
#include "tfhe/polynomial.h"

namespace morphling::tfhe {

namespace detail {
struct KernelLadder;
}

/**
 * A plain iterative radix-2 complex FFT of a fixed power-of-two size,
 * on split real/imaginary arrays, with natural input/output ordering.
 *
 * Used by the merge-split hardware model (size N, two real polynomials
 * per pass) and as the ground-truth reference for NegacyclicFft. The
 * inverse is unscaled; callers divide by size().
 */
class ComplexFft
{
  public:
    explicit ComplexFft(unsigned size);

    unsigned size() const { return size_; }

    /** In-place forward transform (kernel e^{-2*pi*i*jm/size}). */
    void forward(double *re, double *im) const;

    /** In-place inverse transform, unscaled (kernel
     *  e^{+2*pi*i*jm/size}). */
    void inverse(double *re, double *im) const;

  private:
    void run(double *re, double *im, int sign) const;

    unsigned size_;
    std::vector<double> twiddleRe_, twiddleIm_;
    std::vector<unsigned> bitrev_;
};

/**
 * A polynomial in the transform domain: N/2 complex evaluations, in the
 * base-4 digit-reversed order NegacyclicFft's stages leave them in for
 * ring degree N.
 *
 * Stored as separate real/imaginary arrays (structure-of-arrays), which
 * mirrors the hardware's packed 64-bit complex datapath and vectorizes
 * well. Both arrays are 64-byte aligned (kSimdAlignment) so the SIMD
 * kernel tiers can stream them with full-width vector accesses that
 * never straddle a cache line.
 */
class FourierPolynomial
{
  public:
    FourierPolynomial() = default;

    /** Zero transform-domain polynomial for ring degree N. */
    explicit FourierPolynomial(unsigned ring_degree);

    unsigned ringDegree() const { return ringDegree_; }
    unsigned size() const { return static_cast<unsigned>(re_.size()); }

    double &re(unsigned i) { return re_[i]; }
    double &im(unsigned i) { return im_[i]; }
    double re(unsigned i) const { return re_[i]; }
    double im(unsigned i) const { return im_[i]; }

    double *reData() { return re_.data(); }
    double *imData() { return im_.data(); }
    const double *reData() const { return re_.data(); }
    const double *imData() const { return im_.data(); }

    /** Reset to the zero transform. */
    void clear();

    /** this += a (element-wise complex addition). Routed through the
     *  dispatched SIMD kernel tier. */
    void addAssign(const FourierPolynomial &a);

    /** this += a * b (element-wise complex multiply-accumulate).
     *
     * This is the VPE inner loop: one call corresponds to one
     * polynomial multiplication accumulated into POLY-ACC-REG entirely
     * in the transform domain. Routed through the dispatched SIMD
     * kernel tier.
     */
    void mulAddAssign(const FourierPolynomial &a,
                      const FourierPolynomial &b);

  private:
    unsigned ringDegree_ = 0;
    AlignedVector<double> re_, im_;
};

/**
 * Forward/inverse negacyclic transform engine for one ring degree N.
 *
 * The constructor builds the tables once: the radix-4 stage twiddles
 * and the twist factors e^{i*pi*j/N}, published to the kernels as a
 * detail::NegacyclicView. Every transform runs the dispatched kernel
 * template (fft_kernels.h), whose fold+twist load and
 * untwist+scale+round store are fused into the lane transposes.
 *
 * The batched entry points take up to detail::kMaxFftLanes polynomials
 * per kernel call. The kernel tier (scalar / AVX2 / AVX-512 / NEON) is
 * resolved by fft_dispatch.h at first use and acts as a width
 * *ceiling*: whole groups of W = tier lane width go through the widest
 * kernel, and a short group descends the dispatch ladder to the widest
 * narrower kernel it can still fill (e.g. 4 transforms on an AVX-512
 * host use the AVX2 kernel). A trailing group of >= 2 polynomials too
 * small for even the narrowest vector kernel runs through it anyway,
 * with idle lanes re-transforming the first polynomial into a shared
 * throwaway buffer: cheaper than W = 1 calls. Lone polynomials, the
 * scalar tier, and transforms too small to interleave (N/2 % W != 0)
 * run the W = 1 kernel. All paths are bit-identical, so batching and
 * ladder descent never change results. The single-polynomial forward
 * and inverse are count-1 calls of the batched ones.
 *
 * Allocation-free after construction: the interleaved lane scratch is
 * preallocated at the widest tier. An instance carries that mutable
 * scratch and must not be shared between threads concurrently;
 * forDegree() returns a per-thread cached instance, so callers never
 * pay table setup twice on the same thread.
 */
class NegacyclicFft
{
  public:
    explicit NegacyclicFft(unsigned ring_degree);

    NegacyclicFft(const NegacyclicFft &) = delete;
    NegacyclicFft &operator=(const NegacyclicFft &) = delete;

    unsigned ringDegree() const { return view_.n; }

    /** Forward transform of an integer polynomial (decomposition
     *  digits). */
    void forward(const IntPolynomial &poly, FourierPolynomial &out) const;

    /** Forward transform of a torus polynomial (coefficients read as
     *  signed 32-bit integers, the standard TFHE convention). */
    void forward(const TorusPolynomial &poly,
                 FourierPolynomial &out) const;

    /** Inverse transform with rounding back onto the discretized torus
     *  (reduction mod 2^32), overwriting `out`. */
    void inverse(const FourierPolynomial &in, TorusPolynomial &out) const;

    /** Batched forward transform of `count` coefficient arrays (read as
     *  signed 32-bit integers) into `count` spectra. */
    void forward(const std::int32_t *const *in,
                 FourierPolynomial *const *out, unsigned count) const;

    /** Batched inverse + round of `count` spectra, *added* into
     *  `count` torus polynomials (*out[i] += round(inverse(*in[i]))), so
     *  products land straight in their accumulators; clear the outputs
     *  first for a plain inverse. The spectra are left unchanged. */
    void inverseAdd(const FourierPolynomial *const *in,
                    TorusPolynomial *const *out, unsigned count) const;

    /** The tables, for a kernel the engine does not wrap (a blind
     *  rotation's lane tiles call BatchKernels::laneTileCmux). */
    const detail::NegacyclicView &view() const { return view_; }

    /** Per-thread cached engine for ring degree N. */
    static const NegacyclicFft &forDegree(unsigned ring_degree);

  private:
    /** Ladder rung for a group of `remaining` transforms. */
    const detail::BatchKernels &
    pickKernel(const detail::KernelLadder &ladder,
               unsigned remaining) const;

    std::vector<unsigned> stageLen_;      //!< radix-4 spans, descending
    std::vector<double> twiddles_;        //!< all stages' twiddle blocks
    std::vector<const double *> stageTw_; //!< each stage's block
    AlignedVector<double> twistRe_, twistIm_; //!< e^{i*pi*j/N}
    detail::NegacyclicView view_;         //!< the tables, for kernels

    // Interleaved lane scratch, sized for the widest tier so a later
    // dispatch override never reallocates; mutable because transforms
    // are logically const. This is why an engine is single-thread-only.
    mutable AlignedVector<double> laneRe_, laneIm_;
    // Shared throwaway outputs for idle padded lanes of a short group.
    mutable AlignedVector<double> padRe_, padIm_;
    mutable AlignedVector<Torus32> padTorus_;
};

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_FFT_H

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
 * Two complex FFT cores live here:
 *  - ComplexFft: the plain strided radix-2 engine with an explicit
 *    bit-reversal pass. It keeps natural input/output ordering, is used
 *    by the merge-split hardware model (src/arch/functional/ms_fft) and
 *    serves as the reference the radix-4 engine is tested against.
 *  - Radix4Fft: the production core behind NegacyclicFft. Forward is
 *    decimation-in-frequency, inverse decimation-in-time, so no
 *    bit-reversal pass is ever executed; the spectrum lives in the
 *    engine's base-4 digit-reversed order. That order is an internal
 *    convention of the transform domain: every FourierPolynomial is
 *    produced and consumed with the same permutation, and pointwise
 *    multiply/accumulate commutes with any fixed permutation, so
 *    nothing outside the engine ever needs to undo it.
 *
 * On top of NegacyclicFft sits BatchFft, the SIMD batch engine: it
 * transforms W polynomials per call (W = lane width of the dispatched
 * kernel tier, see fft_dispatch.h) with their coefficients interleaved
 * across vector lanes, so every butterfly — including the small-span
 * stages that defeat within-polynomial vectorization — runs at full
 * vector width. All tiers are bit-identical to the scalar engine; the
 * bootstrap pipeline routes all l*(k+1) per-CMux transforms through it.
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

class BatchFft;

namespace detail {
struct KernelLadder;
}

/**
 * A plain iterative radix-2 complex FFT of a fixed power-of-two size,
 * on split real/imaginary arrays, with natural input/output ordering.
 *
 * Used by the merge-split hardware model (size N, two real polynomials
 * per pass) and as the ground-truth reference for Radix4Fft. The
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
 * The production complex FFT core: iterative radix-4 with one trailing
 * radix-2 stage when log2(size) is odd.
 *
 * Forward is decimation-in-frequency (natural input, digit-reversed
 * output), inverse is the exact algorithmic transpose
 * (decimation-in-time: digit-reversed input, natural output), so the
 * bit-reversal permutation pass of the classic radix-2 engine is gone
 * entirely. Twiddle factors are stored per stage as six contiguous
 * streams (re/im of w, w^2, w^3 indexed by butterfly position), which
 * turns every butterfly loop into straight-line code over unit-stride
 * arrays that the compiler auto-vectorizes.
 *
 * The inverse is unscaled: inversePermuted(forwardPermuted(x)) ==
 * size() * x.
 */
class Radix4Fft
{
  public:
    explicit Radix4Fft(unsigned size);

    unsigned size() const { return size_; }

    /** Number of radix-4 stages (stage 0 has span size()). */
    unsigned numStages() const
    {
        return static_cast<unsigned>(stageLen_.size());
    }

    /** True when a final twiddle-free radix-2 stage follows the radix-4
     *  stages (log2(size) odd). */
    bool hasRadix2Tail() const { return radix2Tail_; }

    /** In-place forward DIF transform; output digit-reversed. */
    void forwardPermuted(double *re, double *im) const;

    /** In-place unscaled inverse DIT transform; input digit-reversed,
     *  output natural. */
    void inversePermuted(double *re, double *im) const;

    /** Run the forward stages starting at `first_stage` (used by
     *  NegacyclicFft, which fuses stage 0 with the fold+twist load). */
    void forwardStagesFrom(unsigned first_stage, double *re,
                           double *im) const;

    /** Run the inverse stages (radix-2 tail first, then radix-4 stages
     *  from the smallest span) stopping before `stop_stage` (used by
     *  NegacyclicFft, which fuses stage 0 with untwist+round). */
    void inverseStagesDownTo(unsigned stop_stage, double *re,
                             double *im) const;

    /** Stage butterfly span (stageLen(0) == size()). */
    unsigned stageLen(unsigned stage) const { return stageLen_[stage]; }

    /** Stage twiddles: six blocks of stageLen(stage)/4 doubles each —
     *  w re, w im, w^2 re, w^2 im, w^3 re, w^3 im. */
    const double *stageTwiddles(unsigned stage) const
    {
        return stageTw_[stage].data();
    }

  private:
    void radix4ForwardStage(unsigned stage, double *re, double *im) const;
    void radix4InverseStage(unsigned stage, double *re, double *im) const;
    void radix2Stage(double *re, double *im) const;

    unsigned size_;
    std::vector<unsigned> stageLen_;        //!< radix-4 spans, descending
    std::vector<std::vector<double>> stageTw_; //!< per-stage twiddles
    bool radix2Tail_ = false;
};

/**
 * A polynomial in the transform domain: N/2 complex evaluations, in the
 * digit-reversed order of the Radix4Fft engine for ring degree N.
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
 * Forward/inverse negacyclic transform engine for one ring degree N,
 * built on the radix-4 core.
 *
 * The fold+twist load is fused into the first forward butterfly stage
 * and the untwist+scale+round store into the last inverse stage, so a
 * transform makes exactly log4(N/2) + 1 passes over the data and
 * performs no heap allocation: forward writes straight into the
 * caller's FourierPolynomial and runs in place there.
 *
 * An instance carries internal scratch buffers (used only by the
 * const-input inverse) and must not be shared between threads
 * concurrently; forDegree() returns a per-thread cached instance so
 * callers never pay table setup twice on the same thread.
 */
class NegacyclicFft
{
  public:
    explicit NegacyclicFft(unsigned ring_degree);

    unsigned ringDegree() const { return n_; }

    /** Forward transform of an integer polynomial (decomposition
     *  digits). Allocation-free. */
    void forward(const IntPolynomial &poly, FourierPolynomial &out) const;

    /** Forward transform of a torus polynomial (coefficients read as
     *  signed 32-bit integers, the standard TFHE convention).
     *  Allocation-free. */
    void forward(const TorusPolynomial &poly,
                 FourierPolynomial &out) const;

    /** Inverse transform with rounding back onto the discretized torus
     *  (reduction mod 2^32), overwriting `out`. Preserves `in`; uses the
     *  engine's mutable scratch, which is why an engine is
     *  single-thread-only. */
    void inverse(const FourierPolynomial &in, TorusPolynomial &out) const;

    /** Inverse transform that runs in place inside `in`, destroying its
     *  contents, and *adds* the rounded result into `out` (the batched
     *  inverse's contract). The hot-path variant: no scratch copy. */
    void inverseInPlace(FourierPolynomial &in, TorusPolynomial &out) const;

    /** Per-thread cached engine for ring degree N. */
    static const NegacyclicFft &forDegree(unsigned ring_degree);

  private:
    /** Fold + twist + first forward butterfly stage in one pass over
     *  the input (read as signed 32-bit coefficients). */
    void forwardFromInt(const std::int32_t *input,
                        FourierPolynomial &out) const;

    /** The inverse stages, the last one fused with untwist + scale +
     *  round, adding the rounded coefficients into `out`; consumes
     *  re/im (digit-reversed spectrum). */
    void inverseCore(double *re, double *im, TorusPolynomial &out) const;

    unsigned n_;    //!< ring degree N
    unsigned half_; //!< transform size N/2

    Radix4Fft fft_; //!< the N/2-point complex core
    AlignedVector<double> twistRe_, twistIm_; //!< e^{i*pi*j/N}

    // Scratch reused by the const-preserving inverse (mutable:
    // transforms are logically const). This is why an engine is
    // single-thread-only; forDegree() hands out one engine per thread.
    mutable AlignedVector<double> scratchRe_, scratchIm_;

    friend class BatchFft; //!< shares the tables for batched transforms
};

/**
 * SIMD batch front end over NegacyclicFft: transforms up to
 * detail::kMaxFftLanes polynomials per kernel call by interleaving
 * their coefficients across vector lanes (see fft_kernels.h).
 *
 * The kernel tier (scalar / AVX2 / AVX-512 / NEON) is resolved by
 * fft_dispatch.h at first use and acts as a width *ceiling*: whole
 * groups of W = tier lane width go through the widest kernel, and a
 * short group descends the dispatch ladder to the widest narrower
 * kernel it can still fill (e.g. 4 transforms on an AVX-512 host use
 * the AVX2 kernel rather than falling back to scalar). A trailing
 * group of >= 2 polynomials too small for even the narrowest vector
 * kernel runs through it anyway with idle lanes re-transforming the
 * first polynomial into a shared throwaway buffer — cheaper than
 * per-polynomial scalar calls. Lone polynomials, the scalar tier, and
 * transforms too small to interleave (N/2 % W != 0) take the scalar
 * engine. All paths are bit-identical, so batching and ladder descent
 * never change results.
 *
 * Allocation-free after construction: the interleaved lane scratch is
 * preallocated at the widest tier. Instances carry mutable scratch and
 * are single-thread-only, like NegacyclicFft; forDegree() returns a
 * per-thread cached instance.
 */
class BatchFft
{
  public:
    explicit BatchFft(unsigned ring_degree);

    BatchFft(const BatchFft &) = delete;
    BatchFft &operator=(const BatchFft &) = delete;

    unsigned ringDegree() const { return fft_.ringDegree(); }

    /** The wrapped single-polynomial engine (scalar fallback path). */
    const NegacyclicFft &engine() const { return fft_; }

    /** Batched forward transform of `count` coefficient arrays (read as
     *  signed 32-bit integers) into `count` spectra. */
    void forward(const std::int32_t *const *in,
                 FourierPolynomial *const *out, unsigned count) const;

    /** Batched forward transform of `count` integer polynomials. */
    void forward(const IntPolynomial *const *in,
                 FourierPolynomial *const *out, unsigned count) const;

    /** Batched inverse + round of `count` spectra, *added* into
     *  `count` torus polynomials (*out[i] += round(inverse(*in[i]))), so
     *  products land straight in their accumulators; clear the outputs
     *  first for a plain inverse. Destroys the spectra (hot-path
     *  contract of NegacyclicFft::inverseInPlace). */
    void inverseInPlace(FourierPolynomial *const *in,
                        TorusPolynomial *const *out, unsigned count) const;

    /**
     * Slot-lane tile external product of one full tile of W
     * ciphertexts, W the active tier's lane width: the tier's
     * slotTileProduct kernel (fft_kernels.h gives the layouts). Adds
     * slot w's product column c into out[w * cols + c]. digit_plane and
     * acc_plane are caller scratch of 2 * rows * W * N/2 and
     * 2 * cols * W * N/2 doubles, 64-byte aligned. Needs N >= 16.
     */
    void slotTileProduct(const std::int32_t *const *digits, unsigned rows,
                         const double *const *key_re,
                         const double *const *key_im, unsigned cols,
                         Torus32 *const *out, double *digit_plane,
                         double *acc_plane) const;

    /** Per-thread cached engine for ring degree N. */
    static const BatchFft &forDegree(unsigned ring_degree);

  private:
    /** Widest ladder rung usable for a group of `remaining` transforms,
     *  or nullptr when the scalar engine is the right path. */
    const detail::BatchKernels *
    pickKernel(const detail::KernelLadder &ladder,
               unsigned remaining) const;

    NegacyclicFft fft_;                 //!< owns all transform tables
    std::vector<unsigned> stageLen_;    //!< radix-4 spans (view backing)
    std::vector<const double *> stageTw_; //!< per-stage twiddle blocks
    detail::NegacyclicView view_;       //!< borrowed view for kernels

    // Interleaved lane scratch, sized for the widest tier; mutable for
    // the same logically-const reason as NegacyclicFft's scratch.
    mutable AlignedVector<double> laneRe_, laneIm_;
    // Shared throwaway outputs for idle padded lanes of a short group.
    mutable AlignedVector<double> padRe_, padIm_;
    mutable AlignedVector<Torus32> padTorus_;
};

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_FFT_H

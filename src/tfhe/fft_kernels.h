/**
 * @file
 * Internal interface between the negacyclic FFT front end (fft.cc,
 * fft_dispatch.cc) and the ISA-specific batched butterfly kernels
 * (fft_kernels_{scalar,avx2,avx512,neon}.cc). These kernels are the
 * only negacyclic transform: a lone polynomial runs the scalar tier's
 * W = 1 instantiation.
 *
 * The kernels vectorize across the *batch axis*: W polynomials are
 * transformed simultaneously with their coefficients interleaved
 * lane-wise (element j of lane w lives at scratch[j*W + w]). Every
 * butterfly position then maps to exactly one W-wide vector with the
 * twiddle broadcast across lanes, so all stages — including the
 * smallest spans and the radix-2 tail that defeat within-polynomial
 * vectorization — run at full vector width. Because each lane performs
 * exactly the W = 1 operation sequence per element, every tier's
 * output is bit-identical to the scalar tier's (asserted in
 * tests/test_workspace.cc).
 *
 * Two layouts feed those lanes in a blind rotation, and both take
 * BSK_i in the same round. A full tile of W ciphertexts is
 * lane-resident (laneTileCmux): every full tile of the call keeps its W
 * accumulators interleaved in the workspace for all n CMux rounds, and
 * lane w carries ciphertext w from its accumulator, through its digit
 * rows, spectra and MAC, back to its accumulator, so nothing is
 * transposed. The shorter leftover tile, a lone bootstrap among them,
 * runs row-lane: its (k+1)*l_b digit rows fill the lanes of forwardW,
 * the spectra are transposed out for the MAC (mulAdd), and the k+1
 * accumulators are transposed back in for inverseW.
 *
 * The same tables carry the integer loops around the transforms: the
 * blind rotation's fused rotate-and-decompose and the key switch's row
 * update. They are written as plain loops, which the AVX2 and AVX-512
 * translation units compile with -fvect-cost-model=dynamic so GCC
 * vectorizes them at full register width (its -O2 default model leaves
 * any loop that needs a remainder pass scalar); integer arithmetic is
 * exact, so every tier agrees with the scalar one bit for bit.
 *
 * Each kernel translation unit is compiled with its own ISA flags plus
 * -ffp-contract=off (no FMA contraction: contraction would change
 * rounding and break bit-identity with the baseline scalar build).
 */

#ifndef MORPHLING_TFHE_FFT_KERNELS_H
#define MORPHLING_TFHE_FFT_KERNELS_H

#include <cmath>
#include <cstdint>

#include "tfhe/gadget.h"
#include "tfhe/torus.h"

namespace morphling::tfhe::detail {

/** Widest lane count any kernel tier uses (AVX-512: 8 doubles). */
inline constexpr unsigned kMaxFftLanes = 8;

/**
 * Borrowed view of one NegacyclicFft engine's precomputed tables:
 * everything a kernel needs to run the transform, with no ownership.
 * Pointers remain valid for the lifetime of the owning engine.
 */
struct NegacyclicView
{
    unsigned n = 0;           //!< ring degree N
    unsigned half = 0;        //!< transform size N/2
    unsigned numStages = 0;   //!< radix-4 stage count
    bool radix2Tail = false;  //!< trailing radix-2 stage present
    const unsigned *stageLen = nullptr;    //!< span per stage (desc)
    const double *const *stageTw = nullptr; //!< 6-block twiddles/stage
    const double *twistRe = nullptr;        //!< e^{i*pi*j/N} real
    const double *twistIm = nullptr;        //!< e^{i*pi*j/N} imag
};

/**
 * One dispatch tier's kernel table. forwardW/inverseW transform exactly
 * `width` polynomials per call over the caller's interleaved scratch
 * (capacity >= width * half doubles per plane, 64-byte aligned).
 */
struct BatchKernels
{
    unsigned width = 1;             //!< lanes per batched call (W)
    const char *name = "scalar";    //!< tier name for logs/benches

    /**
     * Negacyclic forward of W integer polynomials: fold + twist fused
     * with the lane transpose, all butterfly stages on the interleaved
     * layout, then de-transpose into each polynomial's SoA spectrum
     * (out_re[w] / out_im[w], digit-reversed order).
     */
    void (*forwardW)(const NegacyclicView &t,
                     const std::int32_t *const *in,
                     double *const *out_re, double *const *out_im,
                     double *scratch_re, double *scratch_im) = nullptr;

    /**
     * Unscaled-inverse + untwist + scale + round of W spectra, *added*
     * into W torus polynomials: out[w][j] += roundToTorus(x_w[j]), so a
     * CMux's products land straight in its accumulator. Consumes
     * (clobbers) nothing of the inputs: spectra are copied into the
     * interleaved scratch first.
     */
    void (*inverseW)(const NegacyclicView &t,
                     const double *const *in_re,
                     const double *const *in_im,
                     Torus32 *const *out,
                     double *scratch_re, double *scratch_im) = nullptr;

    /**
     * One CMux round of a lane-resident tile of W ciphertexts:
     * ACC_w += BSK_i [.] (X^powers[w] * ACC_w - ACC_w) for w < W, with
     * no transpose. acc holds the tile's accumulators interleaved,
     * coefficient j of component c of ciphertext w at
     * acc[(c * N + j) * W + w], and keeps that layout.
     *  1. Rotate and decompose: a per-lane index gather reads
     *     X^powers[w] * ACC_w (powers in [0, 2N)) and writes the
     *     interleaved digit rows, row r = u * plan.levels + l at
     *     digits + r * N * W.
     *  2. Forward: stage 0 folds and twists the digits as it loads
     *     them; each row becomes interleaved plane r.
     *  3. MAC: output column c is the sum over r of plane r times key
     *     polynomial (r, c) (key_re/key_im[r * cols + c]), each key
     *     coefficient broadcast across the lanes. A block of positions
     *     keeps its accumulators in registers across all rows, starting
     *     from +0.0 and adding rows in order with mulAdd's expressions,
     *     so every lane matches the row-lane MAC bit for bit.
     *  4. Inverse: the later stages run on accumulator plane c, and
     *     stage 0 untwists, rounds and adds each lane into acc.
     * digit_plane holds 2 * rows * W * N/2 doubles and acc_plane
     * 2 * cols * W * N/2 (each a real block, then an imaginary block),
     * rows = cols * plan.levels; needs N >= 8.
     */
    void (*laneTileCmux)(const NegacyclicView &t, const GadgetPlan &plan,
                         unsigned cols, const unsigned *powers,
                         const double *const *key_re,
                         const double *const *key_im, Torus32 *acc,
                         std::int32_t *digits, double *digit_plane,
                         double *acc_plane) = nullptr;

    /** Pointwise complex multiply-accumulate over flat SoA arrays:
     *  p += a * b (the VPE inner loop). Any count. */
    void (*mulAdd)(unsigned count, const double *ar, const double *ai,
                   const double *br, const double *bi, double *pr,
                   double *pi) = nullptr;

    /** Pointwise complex accumulate: p += a. Any count. */
    void (*add)(unsigned count, const double *ar, const double *ai,
                double *pr, double *pi) = nullptr;

    /**
     * The CMux input stage in one pass, as the Private-A1 rotator feeds
     * the decomposer: digits[l][j] = the l-th signed gadget digit of
     * (X^power * acc - acc)[j] for j < n, power in [0, 2n). Reads acc at
     * j and j - power (terms wrapped past X^n negated); writes the
     * plan.levels digit rows, each n long.
     */
    void (*rotateDiffDecompose)(unsigned n, const Torus32 *acc,
                                unsigned power, const GadgetPlan &plan,
                                std::int32_t *const *digits) = nullptr;

    /** Key-switch row update: out[w] -= scale * row[w] (mod 2^32) for
     *  w < count, the VPU.KS multiply-accumulate. */
    void (*subScaledRow)(unsigned count, std::uint32_t scale,
                         const Torus32 *row, Torus32 *out) = nullptr;
};

/**
 * Round a double onto the discretized 32-bit torus: round to nearest
 * (ties to even), then reduce mod 2^32 (llrint + wrap-around cast, with
 * a guarded exact range reduction beyond 2^62). The definition every
 * tier's inverse store reproduces: the scalar and NEON kernels call it
 * per coefficient; the AVX2 and AVX-512 kernels round with vector
 * instructions bit-identical to it.
 */
inline Torus32
roundToTorus(double v)
{
    constexpr double kGuard = 4.611686018427387904e18; // 2^62
    if (v >= kGuard || v <= -kGuard)
        v = std::remainder(v, 4294967296.0);
    return static_cast<Torus32>(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(std::llrint(v))));
}

/** Portable reference tier (W = 1); always available, runs every lone
 *  transform, and is the bit-exact semantics every vector tier must
 *  reproduce. */
const BatchKernels &scalarBatchKernels();

// Vector tiers: each returns nullptr when the tier was not compiled in
// (wrong architecture or compiler lacks the ISA support).
const BatchKernels *avx2BatchKernels();
const BatchKernels *avx512BatchKernels();
const BatchKernels *neonBatchKernels();

} // namespace morphling::tfhe::detail

#endif // MORPHLING_TFHE_FFT_KERNELS_H

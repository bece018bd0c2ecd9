/**
 * @file
 * Per-thread scratch memory for the bootstrap hot path.
 *
 * A programmable bootstrap executes n CMux gates, each performing one
 * gadget decomposition, (k+1)*l_b forward FFTs, (k+1)*l_b pointwise
 * multiply-accumulates and (k+1) inverse FFTs. Allocating the digit
 * polynomials, Fourier accumulators and diff ciphertexts fresh in every
 * iteration dominates the runtime of the CPU substrate; the hardware
 * analogue is the paper's fixed on-chip buffer set (Private-A1/A2,
 * POLY-ACC-REG) that every blind-rotation iteration reuses.
 *
 * BootstrapWorkspace owns every intermediate buffer of the pipeline.
 * ensure() (re)shapes them for one parameter geometry and the tiles
 * blindRotateBatch runs: every full tile of W ciphertexts in the call,
 * one per SIMD lane, keeps its accumulators in the lane-interleaved
 * laneAcc from the first CMux round to the last, while each round's
 * lane scratch is one tile, reused by tile after tile; the leftover
 * tile (and every tile on the scalar tier) uses the row-lane buffers at
 * its depth. ensure() is a no-op when the shapes already cover the
 * request, so a
 * warmed-up bootstrap or batched rotation through the workspace entry
 * points performs zero heap allocations (asserted by
 * tests/test_workspace.cc). A workspace is
 * single-thread-only; forThisThread() hands out one instance per
 * thread, which the legacy (workspace-free) entry points use
 * transparently.
 */

#ifndef MORPHLING_TFHE_WORKSPACE_H
#define MORPHLING_TFHE_WORKSPACE_H

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "tfhe/ggsw.h"
#include "tfhe/glwe.h"
#include "tfhe/lwe.h"

namespace morphling::tfhe {

/**
 * Scratch buffers threaded through externalProductFourier /
 * cmuxRotateInPlace / blindRotate / bootstrapInto.
 *
 * Members are public by design: the workspace is a bag of buffers owned
 * by the pipeline stages, not an abstraction boundary. Their contents
 * between calls are unspecified.
 */
class BootstrapWorkspace
{
  public:
    BootstrapWorkspace() = default;

    BootstrapWorkspace(const BootstrapWorkspace &) = delete;
    BootstrapWorkspace &operator=(const BootstrapWorkspace &) = delete;

    /**
     * (Re)shape the external-product scratch for GLWE dimension k, ring
     * degree N and the given gadget: the row-lane buffers for `depth`
     * ciphertexts per CMux call (a short tile of blindRotateBatch; 1
     * for every single-ciphertext entry point), one round's interleaved
     * scratch for a tile of `lanes` ciphertexts, and laneAcc for
     * `resident` lane-resident ciphertexts (whole tiles; 0: none). For
     * a fixed geometry all three only grow, so the call is a no-op (and
     * allocation-free) once the buffers cover them; a new geometry
     * reshapes to exactly `depth`, `lanes` and `resident`.
     */
    void ensure(unsigned glwe_dim, unsigned poly_degree, unsigned levels,
                unsigned base_bits, unsigned depth = 1,
                unsigned lanes = 0, unsigned resident = 0);

    /** The calling thread's workspace. Entry points that take no
     *  explicit workspace route through this instance. */
    static BootstrapWorkspace &forThisThread();

    // --- external product / CMux scratch -----------------------------
    // Ciphertext t of a tile owns digit rows [t*(k+1)*l_b, (t+1)*(k+1)*l_b)
    // and accumulator slots [t*(k+1), (t+1)*(k+1)); depth 1 is the
    // single-ciphertext shape. The inverse transforms add straight into
    // the caller's ciphertexts.
    GadgetPlan plan;                   //!< hoisted decomposition consts
    std::vector<IntPolynomial> digits; //!< depth*(k+1)*l_b
    std::vector<FourierPolynomial> digitsF; //!< depth*(k+1)*l_b transforms
    std::vector<FourierPolynomial> accF; //!< depth*(k+1) accumulators
    GlweCiphertext diff;               //!< X^a * ACC - ACC (reference CMux)

    // Lane-resident tile buffers (BatchKernels::laneTileCmux): lane w
    // of every vector holds ciphertext w of a tile, coefficient j of a
    // polynomial at [j*lanes + w]. laneAcc holds the resident tiles one
    // after another; the rest is one tile's round scratch. Each plane is
    // a real block then an imaginary block of lanes*N/2 doubles per
    // polynomial.
    AlignedVector<Torus32> laneAcc; //!< (k+1) components per tile
    AlignedVector<std::int32_t> laneDigits; //!< (k+1)*l_b digit rows
    AlignedVector<double> digitPlanes; //!< (k+1)*l_b digit spectra
    AlignedVector<double> accPlanes;   //!< k+1 accumulator spectra

    // Stable pointer views over the buffers above, preshaped by
    // ensure() so the batched FFT entry points (NegacyclicFft) and the
    // rotate-and-decompose kernel can be fed without per-call
    // allocation. batchTorus is filled per call (its targets live in
    // the caller's ciphertexts); the rest point at the workspace's own
    // buffers.
    std::vector<std::int32_t *> batchDigits;       //!< -> digits' data
    std::vector<FourierPolynomial *> batchDigitsF; //!< -> digitsF
    std::vector<FourierPolynomial *> batchAccF;    //!< -> accF
    std::vector<TorusPolynomial *> batchTorus;     //!< depth*(k+1)

    // --- bootstrap pipeline scratch ----------------------------------
    GlweCiphertext acc;                 //!< blind-rotation accumulator
    TorusPolynomial testPoly;           //!< built LUT test polynomial
    std::vector<std::uint32_t> switched; //!< mod-switched ciphertext
    LweCiphertext extracted;            //!< sample-extraction output

  private:
    unsigned glweDim_ = 0;
    unsigned polyDegree_ = 0;
    unsigned levels_ = 0;
    unsigned depth_ = 0;
    unsigned lanes_ = 0;
    unsigned resident_ = 0;
};

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_WORKSPACE_H

/**
 * @file
 * A functional (data-carrying) model of one XPU (Figure 5): the
 * double-pointer rotator, the decomposition units, the merge-split
 * FFTs, the VPE array with ACC-output-stationary dataflow, and the
 * per-row IFFTs — computing REAL blind rotations that decrypt
 * identically to the reference library path.
 *
 * This is the RTL-equivalent the performance model abstracts: each
 * component processes actual ciphertext data through the paper's
 * dataflow, and the pass/MAC counters ground the cycle model's resource
 * arithmetic (tests cross-check both).
 */

#ifndef MORPHLING_ARCH_FUNCTIONAL_FUNCTIONAL_XPU_H
#define MORPHLING_ARCH_FUNCTIONAL_FUNCTIONAL_XPU_H

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/functional/ms_fft.h"
#include "arch/functional/vpe.h"
#include "arch/rotator.h"
#include "common/rng.h"
#include "tfhe/ggsw.h"
#include "tfhe/keyset.h"
#include "tfhe/params.h"

namespace morphling::arch::functional {

/** Datapath statistics accumulated over an XPU's lifetime. */
struct XpuDatapathStats
{
    std::uint64_t fftPasses = 0;  //!< forward merge-split passes
    std::uint64_t ifftPasses = 0; //!< inverse merge-split passes
    std::uint64_t vpeMacOps = 0;  //!< element-wise complex MACs
    std::uint64_t rotations = 0;  //!< double-pointer rotations served
    std::uint64_t iterations = 0; //!< blind-rotation iterations
};

/** The functional XPU. */
class FunctionalXpu
{
  public:
    /**
     * @param params TFHE parameter set
     * @param rows   VPE rows (concurrent ciphertexts; default 4)
     * @param cols   VPE columns (>= k+1 output components; default 4)
     */
    FunctionalXpu(const tfhe::TfheParams &params, unsigned rows = 4,
                  unsigned cols = 4);

    /**
     * Load a coefficient-domain bootstrapping key into Private-A2,
     * transforming every GGSW polynomial through the merge-split FFT
     * (the "pre-computed transform-domain data of BSK").
     */
    void loadBootstrapKey(
        const std::vector<tfhe::GgswCiphertext> &bsk);

    /** True once a BSK is resident. */
    bool bskLoaded() const { return !bsk_.empty(); }

    /**
     * Engine entry point: blind-rotate one ciphertext (one VPE row) —
     * the full n-iteration accumulation ACC_i = BSK_i [.]
     * (X^{a~_i} ACC_{i-1} - ACC_{i-1}) + ACC_{i-1}, starting from
     * X^{-b~} * (0,..,0,TP).
     *
     * @param test_poly the test polynomial TP
     * @param switched  mod-switched ciphertext (masks then body)
     */
    tfhe::GlweCiphertext
    runBlindRotate(const tfhe::TorusPolynomial &test_poly,
                   const std::vector<std::uint32_t> &switched);

    /**
     * Engine entry point: blind-rotate up to `rows` ciphertexts
     * concurrently, reusing each streamed BSK_i across all rows (the
     * input-reuse dimension of the array).
     */
    std::vector<tfhe::GlweCiphertext>
    runBlindRotateBatch(const tfhe::TorusPolynomial &test_poly,
                        const std::vector<std::vector<std::uint32_t>>
                            &switched_batch);

    /** Lifetime datapath statistics (MACs summed over the VPEs). */
    XpuDatapathStats stats() const;

  private:
    /** One external-product iteration for one row's accumulator. */
    void externalProductStep(tfhe::GlweCiphertext &acc,
                             unsigned iteration, unsigned a_tilde,
                             unsigned row);

    const tfhe::TfheParams &params_;
    unsigned rows_, cols_;

    Rotator rotator_;
    MergeSplitFft msFft_;
    std::vector<std::vector<Vpe>> vpes_; //!< [row][col]

    // Private-A2 contents: bsk_[i][r][c] spectra (merge-split
    // convention; NOT interchangeable with tfhe::FourierGgsw).
    std::vector<std::vector<std::vector<tfhe::FourierPolynomial>>>
        bsk_;

    XpuDatapathStats stats_;
};

/**
 * Generate a coefficient-domain BSK (the functional XPU transforms it
 * itself): one GGSW encryption of every LWE key bit.
 */
std::vector<tfhe::GgswCiphertext>
generateRawBsk(const tfhe::LweKey &lwe_key,
               const tfhe::GlweKey &glwe_key, Rng &rng);

} // namespace morphling::arch::functional

#endif // MORPHLING_ARCH_FUNCTIONAL_FUNCTIONAL_XPU_H

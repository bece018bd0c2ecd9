/**
 * @file
 * Gadget decomposition, GGSW ciphertexts and the external product
 * (Section II-B).
 *
 * The external product BSK_i [.] Lambda multiplies the signed gadget
 * decomposition of a GLWE ciphertext (a vector of (k+1)*l_b integer
 * polynomials, equation (1)) by the GGSW matrix of (k+1)*l_b x (k+1)
 * torus polynomials (equation (2)). It is the computational core of
 * bootstrapping: (k+1)^2 * l_b polynomial multiplications per
 * invocation, n invocations per bootstrap.
 */

#ifndef MORPHLING_TFHE_GGSW_H
#define MORPHLING_TFHE_GGSW_H

#include <vector>

#include "common/rng.h"
#include "tfhe/fft.h"
#include "tfhe/gadget.h"
#include "tfhe/glwe.h"
#include "tfhe/params.h"

namespace morphling::tfhe {

class BootstrapWorkspace;

/**
 * Signed gadget decomposition of one torus polynomial.
 *
 * Writes `levels` integer polynomials with digits in
 * [-beta/2, beta/2) such that
 * sum_j digits[j] * q/beta^(j+1) ~ poly (error < q / (2 beta^l)).
 * This is the "bit-slicing and rounding" the decomposition unit
 * performs in hardware (Section V-A1).
 */
void gadgetDecompose(const TorusPolynomial &poly, unsigned base_bits,
                     unsigned levels, std::vector<IntPolynomial> &out);

/**
 * Hot-path decomposition against a prebuilt plan: level-outer loops of
 * shift/mask/subtract over the whole polynomial (auto-vectorizable),
 * no per-coefficient constant recomputation. `out` is only reshaped
 * when its geometry mismatches, so repeat calls are allocation-free.
 */
void gadgetDecomposePlanned(const TorusPolynomial &poly,
                            const GadgetPlan &plan,
                            std::vector<IntPolynomial> &out);

/**
 * Pointer-range variant of the planned decomposition: writes the
 * plan.levels digit polynomials into out[0..levels), which must already
 * have the polynomial's degree. Lets the workspace lay the digit
 * polynomials of all GLWE components out contiguously for one batched
 * forward FFT.
 */
void gadgetDecomposePlannedInto(const TorusPolynomial &poly,
                                const GadgetPlan &plan,
                                IntPolynomial *out);

/** Scalar version, used by tests and by key switching internals. */
void gadgetDecomposeScalar(Torus32 value, unsigned base_bits,
                           unsigned levels, std::int32_t *digits);

/**
 * A GGSW ciphertext: (k+1)*l_b GLWE rows.
 *
 * Row (u, j) (u in [0,k], j in [0,l_b)) is GLWE(0) plus
 * m * q/beta^(j+1) added to component u. The bootstrapping key is one
 * GGSW per LWE key bit.
 */
class GgswCiphertext
{
  public:
    GgswCiphertext() = default;

    /** Encrypt the small integer message (for the BSK: a key bit). */
    static GgswCiphertext encrypt(const GlweKey &key, std::int32_t message,
                                  double stddev, Rng &rng);

    unsigned numRows() const
    {
        return static_cast<unsigned>(rows_.size());
    }
    const GlweCiphertext &row(unsigned r) const { return rows_[r]; }

    unsigned baseBits() const { return baseBits_; }
    unsigned levels() const { return levels_; }

  private:
    std::vector<GlweCiphertext> rows_; //!< (k+1)*l_b GLWE ciphertexts
    unsigned baseBits_ = 0;
    unsigned levels_ = 0;
};

/**
 * A GGSW ciphertext pre-transformed into the Fourier domain: the format
 * the hardware keeps in the Private-A2 buffer ("pre-computed
 * transform-domain data of BSK", Section V-A).
 */
class FourierGgsw
{
  public:
    FourierGgsw() = default;

    /** Transform every polynomial of a GGSW ciphertext. */
    static FourierGgsw fromGgsw(const GgswCiphertext &ggsw);

    /** Rebuild from raw transform-domain rows (deserialization): a
     *  matrix, so at least one row and every row equally long. */
    static FourierGgsw
    fromRows(unsigned base_bits, unsigned levels,
             std::vector<std::vector<FourierPolynomial>> rows);

    unsigned numRows() const
    {
        return static_cast<unsigned>(rows_.size());
    }
    unsigned numCols() const
    {
        return rows_.empty()
                   ? 0
                   : static_cast<unsigned>(rows_[0].size());
    }
    const FourierPolynomial &at(unsigned row, unsigned col) const
    {
        return rows_[row][col];
    }

    unsigned baseBits() const { return baseBits_; }
    unsigned levels() const { return levels_; }

  private:
    // rows_[r][c]: row r (decomposition digit index), column c (output
    // GLWE component) -- the matrix of equation (2).
    std::vector<std::vector<FourierPolynomial>> rows_;
    unsigned baseBits_ = 0;
    unsigned levels_ = 0;
};

/**
 * Reference external product, coefficient domain, O(N^2) polynomial
 * products. result = ggsw [.] input. Ground truth for tests.
 */
GlweCiphertext externalProductSchoolbook(const GgswCiphertext &ggsw,
                                         const GlweCiphertext &input);

/**
 * Production external product through the Fourier domain:
 * decompose -> forward FFT per digit polynomial -> pointwise
 * multiply-accumulate per output component -> one inverse FFT per
 * component. Transform counts match the Input+Output-Reuse dataflow:
 * (k+1)*l_b forward + (k+1) inverse transforms.
 */
GlweCiphertext externalProductFourier(const FourierGgsw &ggsw,
                                      const GlweCiphertext &input);

/**
 * Workspace external product: result = ggsw [.] input, with every
 * intermediate (digit polynomials, Fourier transforms, accumulator)
 * taken from `ws`. Allocation-free once `ws` and `result` are warm.
 * `result` must not alias `input`.
 */
void externalProductFourier(const FourierGgsw &ggsw,
                            const GlweCiphertext &input,
                            GlweCiphertext &result,
                            BootstrapWorkspace &ws);

/**
 * CMux gate: returns input + ggsw [.] (rotated(input) - input) where
 * rotated = X^power * input. One blind-rotation iteration
 * (Algorithm 1, line 4).
 */
GlweCiphertext cmuxRotate(const FourierGgsw &ggsw,
                          const GlweCiphertext &input, unsigned power);

/**
 * In-place workspace CMux: acc += ggsw [.] (X^power * acc - acc).
 * The blind-rotation inner loop; allocation-free once `ws` is warm.
 */
void cmuxRotateInPlace(const FourierGgsw &ggsw, GlweCiphertext &acc,
                       unsigned power, BootstrapWorkspace &ws);

/**
 * Row-lane tile CMux: *accs[t] += ggsw [.] (X^powers[t] * *accs[t] -
 * *accs[t]) for t < count. Each accumulator component is rotated,
 * differenced and decomposed in one pass (the dispatched tier's
 * rotateDiffDecompose); the tile's count*(k+1)*l_b forward transforms
 * run as one batched call, each key polynomial is multiplied into every
 * slot while it is in cache, and the count*(k+1) inverses run as one
 * call that adds into the accumulators. Every accumulator gets exactly
 * cmuxRotateInPlace's arithmetic, so the results are byte-equal to
 * count separate calls. blindRotateBatch runs its short tiles (fewer
 * than W ciphertexts) and every tile on the scalar tier through it; a
 * full tile stays lane-resident instead (BatchKernels::laneTileCmux).
 * Grows `ws` to row-lane depth `count`; allocation-free once warm.
 */
void cmuxRotateTileInPlace(const FourierGgsw &ggsw,
                           GlweCiphertext *const *accs,
                           const unsigned *powers, unsigned count,
                           BootstrapWorkspace &ws);

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_GGSW_H

/**
 * @file
 * Programmable bootstrapping (Algorithm 1):
 * mod-switch -> blind rotation (n external products) -> sample
 * extraction -> key switching.
 *
 * Besides the end-to-end entry points this header exposes each stage
 * individually; the accelerator model, the op-count study (Figure 1)
 * and the tests all reuse the same stage functions.
 */

#ifndef MORPHLING_TFHE_BOOTSTRAP_H
#define MORPHLING_TFHE_BOOTSTRAP_H

#include <cstdint>
#include <vector>

#include "tfhe/keyset.h"
#include "tfhe/workspace.h"

namespace morphling::tfhe {

/**
 * Modulus-switch every element of an LWE ciphertext from q = 2^32 to
 * 2N (Algorithm 1, line 1). Element i of the result is
 * round(c_i * 2N / q) in [0, 2N); the body comes last.
 */
std::vector<std::uint32_t> modSwitch(const LweCiphertext &ct,
                                     unsigned poly_degree);

/** modSwitch into an existing buffer (allocation-free when warm). */
void modSwitchInto(const LweCiphertext &ct, unsigned poly_degree,
                   std::vector<std::uint32_t> &out);

/**
 * Build the test polynomial for a LUT over a p-value message space with
 * one bit of padding (messages encoded at m / (2p), phases in
 * [0, 1/2)).
 *
 * Coefficient j holds lut[round(j*p/N)]; the top half-slot holds
 * -lut[0] so that a message 0 with slightly negative noise — whose
 * switched phase wraps to just below 2N — still resolves to lut[0]
 * after the negacyclic wrap.
 */
TorusPolynomial buildTestPolynomial(unsigned poly_degree,
                                    const std::vector<Torus32> &lut);

/** buildTestPolynomial into an existing polynomial (allocation-free
 *  when already at the right degree). */
void buildTestPolynomialInto(unsigned poly_degree,
                             const std::vector<Torus32> &lut,
                             TorusPolynomial &out);

/** Constant test polynomial (every coefficient mu): the sign-extractor
 *  used by gate bootstrapping. */
TorusPolynomial constantTestPolynomial(unsigned poly_degree, Torus32 mu);

/**
 * Blind rotation (Algorithm 1, lines 2-4): starting from the trivial
 * accumulator X^(2N - b~) * (0,..,0,TP), fold in one CMux per LWE mask.
 *
 * @param switched mod-switched ciphertext (masks then body), values in
 *                 [0, 2N)
 */
GlweCiphertext blindRotate(const BootstrapKey &bsk,
                           const TorusPolynomial &test_poly,
                           const std::vector<std::uint32_t> &switched);

/**
 * Workspace blind rotation: the accumulator is (re)built inside `acc`
 * (rotate-on-construct: the test polynomial is rotated directly into
 * the accumulator body, no trivial-then-rotate copy) and every CMux
 * runs in place through `ws`. Allocation-free when warm. The count-1
 * call of blindRotateBatch.
 */
void blindRotate(const BootstrapKey &bsk,
                 const TorusPolynomial &test_poly,
                 const std::vector<std::uint32_t> &switched,
                 GlweCiphertext &acc, BootstrapWorkspace &ws);

/**
 * Ciphertexts per tile of blindRotateBatch: the active FFT tier's lane
 * width W, one ciphertext per lane (8 on AVX-512, 1 on the scalar
 * tier).
 */
unsigned blindRotateTile();

/**
 * Blind rotation of `count` ciphertexts: accs[j] gets the rotation of
 * switched[j] (each as in blindRotate), in tiles of blindRotateTile() =
 * W ciphertexts, one per SIMD lane, so each key coefficient serves all
 * W lanes of a tile: the CPU form of the transform-domain reuse across
 * a VPE row.
 *
 * One loop over the key: every ciphertext of the call takes its CMux
 * against BSK_i before any takes BSK_{i+1}, so the call reads each
 * BSK_i once, as the Program's one DMA.LD_BSK per XPU.BR chunk states.
 * The full tiles are lane-resident: their accumulators are interleaved
 * into the workspace once, each round runs BatchKernels::laneTileCmux on
 * tile after tile (no transpose in any round), and they are
 * de-interleaved once after round n-1. A lane whose a~_i is 0 runs that
 * round as an exact identity. The count mod W ciphertexts left over
 * (count 1 included), and every ciphertext on the scalar tier, then take
 * the same BSK_i through row-lane tiles (cmuxRotateTileInPlace), each one
 * whose a~_i is nonzero. Outputs are byte-equal to `count` blindRotate
 * calls on every SIMD tier. `ws` grows to the call's full tiles of
 * accumulators, one tile of round scratch and the row-lane depth of the
 * leftover tile, and keeps its single-ciphertext shape for count == 1;
 * allocation-free when warm.
 */
void blindRotateBatch(const BootstrapKey &bsk,
                      const TorusPolynomial &test_poly,
                      const std::vector<std::uint32_t> *switched,
                      GlweCiphertext *accs, unsigned count,
                      BootstrapWorkspace &ws);

/**
 * Full workspace bootstrap from evaluation material: mod-switch, blind
 * rotation, sample extraction and key switching, every intermediate
 * taken from `ws`. This is the zero-allocation hot path under all
 * batch/service entry points; `out` gets the key-switched result.
 */
void bootstrapInto(const BootstrapKey &bsk, const KeySwitchKey &ksk,
                   const TorusPolynomial &test_poly,
                   const LweCiphertext &ct, LweCiphertext &out,
                   BootstrapWorkspace &ws);

/**
 * Bootstrap with an explicit test polynomial; output remains under the
 * *extracted* key s' (no key switch). Building block for the gate and
 * programmable entry points.
 */
LweCiphertext bootstrapNoKeySwitch(const KeySet &keys,
                                   const LweCiphertext &ct,
                                   const TorusPolynomial &test_poly);

/**
 * Full programmable bootstrapping of a padded p-value message: returns
 * LWE_s(lut[m]) for input LWE_s(m / (2p)). lut values are raw torus
 * elements, so any output encoding (including a different p) works.
 */
LweCiphertext programmableBootstrap(const KeySet &keys,
                                    const LweCiphertext &ct,
                                    const std::vector<Torus32> &lut);

/**
 * Sign bootstrap: returns LWE_s(+mu) when the phase of ct lies in
 * (0, 1/2) and LWE_s(-mu) when it lies in (-1/2, 0). The primitive
 * behind all two-input boolean gates.
 */
LweCiphertext signBootstrap(const KeySet &keys, const LweCiphertext &ct,
                            Torus32 mu);

/**
 * Multi-LUT test polynomial: packs nu look-up tables (all over the
 * same p-value padded space) into one test polynomial by spacing the
 * functions N/(p*nu) coefficients apart inside each message slot.
 * Extraction offset i*N/(p*nu) then reads f_i — several functions from
 * ONE blind rotation, at the price of a nu-times smaller noise margin.
 * (The transform-domain-reuse idea applied at the algorithm level: the
 * expensive rotation is shared, only the cheap extractions multiply.)
 */
TorusPolynomial
buildMultiTestPolynomial(unsigned poly_degree,
                         const std::vector<std::vector<Torus32>> &luts);

/**
 * Evaluate several LUTs with a single blind rotation: returns one
 * ciphertext per LUT, output i = luts[i][m]. All LUTs share the
 * message space; p * nu must divide N with spacing >= 2.
 */
std::vector<LweCiphertext>
multiLutBootstrap(const KeySet &keys, const LweCiphertext &ct,
                  const std::vector<std::vector<Torus32>> &luts);

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_BOOTSTRAP_H

/**
 * @file
 * The precomputed constants of one signed gadget decomposition.
 *
 * Split out of ggsw.h so the SIMD kernel tiers (fft_kernels.h), which
 * decompose the blind-rotation accumulator in their fused
 * rotate-and-decompose pass, can take a plan without pulling in the
 * GGSW and GLWE headers.
 */

#ifndef MORPHLING_TFHE_GADGET_H
#define MORPHLING_TFHE_GADGET_H

#include <cstdint>

namespace morphling::tfhe {

/**
 * Precomputed constants of one signed gadget decomposition: the digit
 * mask, the centering half-base, and the combined centering + rounding
 * offset that the scalar path used to rebuild per coefficient.
 */
struct GadgetPlan
{
    unsigned baseBits = 0;
    unsigned levels = 0;
    std::uint32_t mask = 0;   //!< beta - 1
    std::uint32_t offset = 0; //!< centering + rounding offset
    std::int32_t half = 0;    //!< beta / 2
};

/** Build the plan for digits in base 2^base_bits over `levels` levels. */
GadgetPlan makeGadgetPlan(unsigned base_bits, unsigned levels);

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_GADGET_H

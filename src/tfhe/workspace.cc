#include "workspace.h"

#include <algorithm>

namespace morphling::tfhe {

void
BootstrapWorkspace::ensure(unsigned glwe_dim, unsigned poly_degree,
                           unsigned levels, unsigned base_bits,
                           unsigned depth, unsigned slots)
{
    if (plan.baseBits != base_bits || plan.levels != levels)
        plan = makeGadgetPlan(base_bits, levels);

    const bool same_ring =
        glweDim_ == glwe_dim && polyDegree_ == poly_degree;
    const bool same_shape = same_ring && levels_ == levels;
    if (same_shape && depth <= depth_ && slots <= slots_)
        return;
    if (same_shape) {
        depth = std::max(depth, depth_);
        slots = std::max(slots, slots_);
    }

    // One digit polynomial per GGSW row and tile slot: the row-lane
    // path transforms depth*(k+1)*l_b of them in one batched call, the
    // slot-lane path reads slots*(k+1)*l_b of them into its planes.
    const std::size_t row_count =
        static_cast<std::size_t>(glwe_dim + 1) * levels;
    const std::size_t rows = row_count * depth;
    const std::size_t cols = static_cast<std::size_t>(glwe_dim + 1) * depth;
    const std::size_t digit_rows = row_count * std::max(depth, slots);
    digits.resize(digit_rows);
    for (auto &p : digits) {
        if (p.degree() != poly_degree)
            p = IntPolynomial(poly_degree);
    }
    digitsF.resize(rows);
    for (auto &fp : digitsF) {
        if (fp.ringDegree() != poly_degree)
            fp = FourierPolynomial(poly_degree);
    }

    // One Fourier accumulator per GLWE component and tile slot, so the
    // inverse FFTs batch the same way.
    accF.resize(cols);
    for (auto &fp : accF) {
        if (fp.ringDegree() != poly_degree)
            fp = FourierPolynomial(poly_degree);
    }
    if (diff.dimension() != glwe_dim || !same_ring)
        diff = GlweCiphertext(glwe_dim, poly_degree);

    const std::size_t plane = std::size_t{poly_degree / 2} * slots;
    digitPlanes.resize(2 * row_count * plane);
    accPlanes.resize(2 * (glwe_dim + 1) * plane);

    // Pointer views for the batched FFT calls: targets are stable until
    // the next reshaping ensure().
    batchDigits.resize(digit_rows);
    for (std::size_t r = 0; r < digit_rows; ++r)
        batchDigits[r] = digits[r].data();
    batchDigitsF.resize(rows);
    for (std::size_t r = 0; r < rows; ++r)
        batchDigitsF[r] = &digitsF[r];
    batchAccF.resize(cols);
    for (std::size_t c = 0; c < cols; ++c)
        batchAccF[c] = &accF[c];
    batchTorus.resize(cols);
    batchKeyRe.resize(row_count * (glwe_dim + 1));
    batchKeyIm.resize(batchKeyRe.size());
    batchOut.resize(static_cast<std::size_t>(glwe_dim + 1) * slots);

    glweDim_ = glwe_dim;
    polyDegree_ = poly_degree;
    levels_ = levels;
    depth_ = depth;
    slots_ = slots;
}

BootstrapWorkspace &
BootstrapWorkspace::forThisThread()
{
    thread_local BootstrapWorkspace ws;
    return ws;
}

} // namespace morphling::tfhe

#include "workspace.h"

namespace morphling::tfhe {

void
BootstrapWorkspace::ensure(unsigned glwe_dim, unsigned poly_degree,
                           unsigned levels, unsigned base_bits,
                           unsigned depth)
{
    if (plan.baseBits != base_bits || plan.levels != levels)
        plan = makeGadgetPlan(base_bits, levels);

    const bool same_ring =
        glweDim_ == glwe_dim && polyDegree_ == poly_degree;
    if (same_ring && levels_ == levels && depth <= depth_)
        return;

    // One digit polynomial and one transform per GGSW row and tile
    // slot, so a whole tile's depth*(k+1)*l_b forward FFTs can run as
    // one batched call over them.
    const std::size_t rows =
        static_cast<std::size_t>(glwe_dim + 1) * levels * depth;
    const std::size_t cols = static_cast<std::size_t>(glwe_dim + 1) * depth;
    digits.resize(rows);
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

    // Pointer views for the batched FFT calls: targets are stable until
    // the next reshaping ensure().
    batchDigits.resize(rows);
    batchDigitsF.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        batchDigits[r] = digits[r].data();
        batchDigitsF[r] = &digitsF[r];
    }
    batchAccF.resize(cols);
    for (std::size_t c = 0; c < cols; ++c)
        batchAccF[c] = &accF[c];
    batchTorus.resize(cols);

    glweDim_ = glwe_dim;
    polyDegree_ = poly_degree;
    levels_ = levels;
    depth_ = depth;
}

BootstrapWorkspace &
BootstrapWorkspace::forThisThread()
{
    thread_local BootstrapWorkspace ws;
    return ws;
}

} // namespace morphling::tfhe

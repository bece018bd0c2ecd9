#include "workspace.h"

#include <algorithm>

namespace morphling::tfhe {

void
BootstrapWorkspace::ensure(unsigned glwe_dim, unsigned poly_degree,
                           unsigned levels, unsigned base_bits,
                           unsigned depth, unsigned lanes,
                           unsigned resident)
{
    if (plan.baseBits != base_bits || plan.levels != levels)
        plan = makeGadgetPlan(base_bits, levels);

    const bool same_ring =
        glweDim_ == glwe_dim && polyDegree_ == poly_degree;
    const bool same_shape = same_ring && levels_ == levels;
    if (same_shape && depth <= depth_ && lanes <= lanes_ &&
        resident <= resident_)
        return;
    if (same_shape) {
        depth = std::max(depth, depth_);
        lanes = std::max(lanes, lanes_);
        resident = std::max(resident, resident_);
    }

    // One digit polynomial per GGSW row and tile slot: the row-lane
    // path transforms depth*(k+1)*l_b of them in one batched call.
    const std::size_t row_count =
        static_cast<std::size_t>(glwe_dim + 1) * levels;
    const std::size_t rows = row_count * depth;
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

    // A lane tile's polynomial is N*lanes interleaved coefficients, and
    // its spectrum N/2*lanes complex doubles; the resident accumulators
    // are (k+1) polynomials per ciphertext.
    const std::size_t lane_poly = std::size_t{poly_degree} * lanes;
    laneAcc.resize((glwe_dim + 1) * std::size_t{poly_degree} * resident);
    laneDigits.resize(row_count * lane_poly);
    digitPlanes.resize(row_count * lane_poly);
    accPlanes.resize((glwe_dim + 1) * lane_poly);

    // Pointer views for the batched FFT calls: targets are stable until
    // the next reshaping ensure().
    batchDigits.resize(rows);
    for (std::size_t r = 0; r < rows; ++r)
        batchDigits[r] = digits[r].data();
    batchDigitsF.resize(rows);
    for (std::size_t r = 0; r < rows; ++r)
        batchDigitsF[r] = &digitsF[r];
    batchAccF.resize(cols);
    for (std::size_t c = 0; c < cols; ++c)
        batchAccF[c] = &accF[c];
    batchTorus.resize(cols);

    glweDim_ = glwe_dim;
    polyDegree_ = poly_degree;
    levels_ = levels;
    depth_ = depth;
    lanes_ = lanes;
    resident_ = resident;
}

BootstrapWorkspace &
BootstrapWorkspace::forThisThread()
{
    thread_local BootstrapWorkspace ws;
    return ws;
}

} // namespace morphling::tfhe

#include "ggsw.h"

#include "common/logging.h"
#include "tfhe/fft_dispatch.h"
#include "tfhe/workspace.h"

namespace morphling::tfhe {

GadgetPlan
makeGadgetPlan(unsigned base_bits, unsigned levels)
{
    panic_if(base_bits == 0 || levels == 0 ||
                 std::uint64_t{base_bits} * levels > 32,
             "bad gadget (base 2^", base_bits, ", ", levels, " levels)");
    GadgetPlan plan;
    plan.baseBits = base_bits;
    plan.levels = levels;
    plan.mask = (base_bits == 32) ? ~0u : ((1u << base_bits) - 1);
    plan.half = std::int32_t{1} << (base_bits - 1);

    // Centering offset: adding beta/2 at every level lets us subtract
    // beta/2 from each extracted digit, mapping digits from [0, beta)
    // to [-beta/2, beta/2). Rounding offset: half an ulp of the last
    // level converts the truncation of the undecomposed tail into
    // round-to-nearest.
    plan.offset = 0;
    for (unsigned j = 1; j <= levels; ++j)
        plan.offset += std::uint32_t{1} << (31 - (j - 1) * base_bits);
    if (levels * base_bits < 32)
        plan.offset += std::uint32_t{1} << (32 - levels * base_bits - 1);
    return plan;
}

void
gadgetDecomposeScalar(Torus32 value, unsigned base_bits, unsigned levels,
                      std::int32_t *digits)
{
    const GadgetPlan plan = makeGadgetPlan(base_bits, levels);
    const std::uint32_t shifted = value + plan.offset;
    for (unsigned j = 1; j <= levels; ++j) {
        const unsigned shift = 32 - j * base_bits;
        const std::uint32_t digit = (shifted >> shift) & plan.mask;
        digits[j - 1] = static_cast<std::int32_t>(digit) - plan.half;
    }
}

void
gadgetDecomposePlanned(const TorusPolynomial &poly, const GadgetPlan &plan,
                       std::vector<IntPolynomial> &out)
{
    const unsigned n = poly.degree();
    if (out.size() != plan.levels)
        out.resize(plan.levels);
    for (auto &p : out) {
        if (p.degree() != n)
            p = IntPolynomial(n);
    }
    gadgetDecomposePlannedInto(poly, plan, out.data());
}

void
gadgetDecomposePlannedInto(const TorusPolynomial &poly,
                           const GadgetPlan &plan, IntPolynomial *out)
{
    const unsigned n = poly.degree();
    const Torus32 *__restrict src = poly.data();
    const std::uint32_t offset = plan.offset;
    const std::uint32_t mask = plan.mask;
    const std::int32_t half = plan.half;
    // Level-outer: each pass is a straight shift/mask/subtract over the
    // polynomial, which vectorizes; the offset addition is redone per
    // level to keep the inner loop free of cross-level state.
    for (unsigned j = 0; j < plan.levels; ++j) {
        const unsigned shift = 32 - (j + 1) * plan.baseBits;
        panic_if(out[j].degree() != n, "digit polynomial degree mismatch");
        std::int32_t *__restrict dst = out[j].data();
        for (unsigned c = 0; c < n; ++c) {
            const std::uint32_t shifted = src[c] + offset;
            dst[c] = static_cast<std::int32_t>((shifted >> shift) & mask) -
                     half;
        }
    }
}

void
gadgetDecompose(const TorusPolynomial &poly, unsigned base_bits,
                unsigned levels, std::vector<IntPolynomial> &out)
{
    gadgetDecomposePlanned(poly, makeGadgetPlan(base_bits, levels), out);
}

GgswCiphertext
GgswCiphertext::encrypt(const GlweKey &key, std::int32_t message,
                        double stddev, Rng &rng)
{
    const auto &params = key.params();
    const unsigned k = key.dimension();
    const unsigned levels = params.bskLevels;
    const unsigned base_bits = params.bskBaseBits;

    GgswCiphertext out;
    out.baseBits_ = base_bits;
    out.levels_ = levels;
    out.rows_.reserve(static_cast<std::size_t>(k + 1) * levels);

    TorusPolynomial zero(params.polyDegree);
    for (unsigned u = 0; u <= k; ++u) {
        for (unsigned j = 0; j < levels; ++j) {
            GlweCiphertext row =
                GlweCiphertext::encrypt(key, zero, stddev, rng);
            // Add m * q / beta^(j+1) to the constant coefficient of
            // component u.
            const Torus32 gadget = static_cast<Torus32>(
                static_cast<std::int64_t>(message)
                << (32 - (j + 1) * base_bits));
            row.component(u)[0] += gadget;
            out.rows_.push_back(std::move(row));
        }
    }
    return out;
}

FourierGgsw
FourierGgsw::fromGgsw(const GgswCiphertext &ggsw)
{
    FourierGgsw out;
    out.baseBits_ = ggsw.baseBits();
    out.levels_ = ggsw.levels();
    out.rows_.resize(ggsw.numRows());

    panic_if(ggsw.numRows() == 0, "empty GGSW");
    const unsigned n = ggsw.row(0).polyDegree();

    // All (k+1)*l_b*(k+1) transforms of the key material go through one
    // batched forward call, torus coefficients read as signed 32-bit
    // integers (the standard TFHE convention).
    std::vector<const std::int32_t *> in;
    std::vector<FourierPolynomial *> spectra;
    for (unsigned r = 0; r < ggsw.numRows(); ++r) {
        const auto &row = ggsw.row(r);
        auto &dst = out.rows_[r];
        dst.resize(row.dimension() + 1);
        for (unsigned c = 0; c <= row.dimension(); ++c) {
            dst[c] = FourierPolynomial(n);
            in.push_back(reinterpret_cast<const std::int32_t *>(
                row.component(c).data()));
            spectra.push_back(&dst[c]);
        }
    }
    NegacyclicFft::forDegree(n).forward(in.data(), spectra.data(),
                                        static_cast<unsigned>(in.size()));
    return out;
}

FourierGgsw
FourierGgsw::fromRows(unsigned base_bits, unsigned levels,
                      std::vector<std::vector<FourierPolynomial>> rows)
{
    FourierGgsw out;
    out.baseBits_ = base_bits;
    out.levels_ = levels;
    out.rows_ = std::move(rows);
    panic_if(out.rows_.empty(), "empty GGSW rows");
    for (const auto &row : out.rows_)
        panic_if(row.size() != out.rows_[0].size(), "ragged GGSW rows");
    return out;
}

GlweCiphertext
externalProductSchoolbook(const GgswCiphertext &ggsw,
                          const GlweCiphertext &input)
{
    const unsigned k = input.dimension();
    const unsigned n = input.polyDegree();
    const unsigned levels = ggsw.levels();
    panic_if(ggsw.numRows() != (k + 1) * levels,
             "GGSW/GLWE shape mismatch");

    GlweCiphertext result(k, n);
    std::vector<IntPolynomial> digits;
    for (unsigned u = 0; u <= k; ++u) {
        gadgetDecompose(input.component(u), ggsw.baseBits(), levels,
                        digits);
        for (unsigned j = 0; j < levels; ++j) {
            const auto &row = ggsw.row(u * levels + j);
            for (unsigned c = 0; c <= k; ++c) {
                negacyclicMulAddSchoolbook(result.component(c), digits[j],
                                           row.component(c));
            }
        }
    }
    return result;
}

namespace {

/** Check a GGSW against GLWE dimension k and shape `ws` for `depth`
 *  row-lane ciphertexts of ring degree n. */
void
prepareWorkspace(const FourierGgsw &ggsw, unsigned k, unsigned n,
                 unsigned depth, BootstrapWorkspace &ws)
{
    panic_if(ggsw.numRows() != (k + 1) * ggsw.levels(),
             "GGSW/GLWE shape mismatch");
    panic_if(ggsw.numCols() != k + 1, "GGSW column count mismatch");
    ws.ensure(k, n, ggsw.levels(), ggsw.baseBits(), depth);
}

/**
 * Stage (1) of the Fourier external product: decompose all components
 * of `input` into the digit rows of the workspace. Their forward
 * transforms, (k+1)*l_b per ciphertext, are the ones the hardware
 * shares across a VPE row (input transform-domain reuse); they run as
 * one batched NegacyclicFft call, so the SIMD tiers transform several
 * digit polynomials per pass. (The tile CMux decomposes with
 * the dispatched rotateDiffDecompose kernel instead.)
 */
void
decomposeInto(const GlweCiphertext &input, BootstrapWorkspace &ws)
{
    const unsigned k = input.dimension();
    const unsigned levels = ws.plan.levels;
    for (unsigned u = 0; u <= k; ++u)
        gadgetDecomposePlannedInto(input.component(u), ws.plan,
                                   ws.digits.data() + u * levels);
}

/**
 * Stage (2): the (k+1) transform-domain dot products of equation (2),
 * one per output component and tile slot, accumulated into ws.accF.
 * Each key polynomial is read once for the whole tile while it is in
 * cache; every slot still accumulates its rows in order, so a slot's
 * arithmetic does not depend on the depth.
 */
void
accumulateColumns(const FourierGgsw &ggsw, BootstrapWorkspace &ws,
                  unsigned k, unsigned depth)
{
    const unsigned rows = ggsw.numRows();
    for (unsigned c = 0; c <= k; ++c) {
        for (unsigned t = 0; t < depth; ++t)
            ws.accF[t * (k + 1) + c].clear();
        for (unsigned r = 0; r < rows; ++r) {
            const FourierPolynomial &key = ggsw.at(r, c);
            for (unsigned t = 0; t < depth; ++t)
                ws.accF[t * (k + 1) + c].mulAddAssign(
                    ws.digitsF[t * rows + r], key);
        }
    }
}

} // namespace

void
externalProductFourier(const FourierGgsw &ggsw, const GlweCiphertext &input,
                       GlweCiphertext &result, BootstrapWorkspace &ws)
{
    const unsigned k = input.dimension();
    const unsigned n = input.polyDegree();
    prepareWorkspace(ggsw, k, n, 1, ws);
    decomposeInto(input, ws);
    NegacyclicFft::forDegree(n).forward(
        ws.batchDigits.data(), ws.batchDigitsF.data(), ggsw.numRows());
    if (result.dimension() != k || result.polyDegree() != n)
        result = GlweCiphertext(k, n);

    // (2): one dot product per output component, accumulated entirely
    // in the transform domain (output transform-domain reuse: a single
    // inverse FFT per component, not per product). The k+1 inverse
    // transforms run as one batched call that adds into `result`, so
    // it starts from zero.
    accumulateColumns(ggsw, ws, k, 1);
    for (unsigned c = 0; c <= k; ++c) {
        result.component(c).clear();
        ws.batchTorus[c] = &result.component(c);
    }
    NegacyclicFft::forDegree(n).inverseAdd(ws.batchAccF.data(),
                                           ws.batchTorus.data(), k + 1);
}

GlweCiphertext
externalProductFourier(const FourierGgsw &ggsw, const GlweCiphertext &input)
{
    GlweCiphertext result;
    externalProductFourier(ggsw, input, result,
                           BootstrapWorkspace::forThisThread());
    return result;
}

void
cmuxRotateInPlace(const FourierGgsw &ggsw, GlweCiphertext &acc,
                  unsigned power, BootstrapWorkspace &ws)
{
    const unsigned k = acc.dimension();
    const unsigned n = acc.polyDegree();
    prepareWorkspace(ggsw, k, n, 1, ws);

    // Lambda = X^power * ACC - ACC, rotated and decomposed as separate
    // passes: this is the reference the tile CMux's fused kernel is
    // tested against ...
    for (unsigned c = 0; c <= k; ++c)
        acc.component(c).rotateDiffInto(power, ws.diff.component(c));

    // ... then ACC += BSK [.] Lambda, the external product's k+1
    // inverse FFTs batched into one call that adds straight into the
    // rotating accumulator (no result/copy ciphertexts).
    decomposeInto(ws.diff, ws);
    NegacyclicFft::forDegree(n).forward(
        ws.batchDigits.data(), ws.batchDigitsF.data(), ggsw.numRows());
    accumulateColumns(ggsw, ws, k, 1);
    for (unsigned c = 0; c <= k; ++c)
        ws.batchTorus[c] = &acc.component(c);
    NegacyclicFft::forDegree(n).inverseAdd(ws.batchAccF.data(),
                                           ws.batchTorus.data(), k + 1);
}

void
cmuxRotateTileInPlace(const FourierGgsw &ggsw, GlweCiphertext *const *accs,
                      const unsigned *powers, unsigned count,
                      BootstrapWorkspace &ws)
{
    const unsigned k = accs[0]->dimension();
    const unsigned n = accs[0]->polyDegree();
    const unsigned levels = ggsw.levels();
    const unsigned rows = ggsw.numRows();
    const detail::BatchKernels &kernels = detail::activeBatchKernels();
    prepareWorkspace(ggsw, k, n, count, ws);

    // Lambda_t = X^power_t * ACC_t - ACC_t, rotated and decomposed in
    // one pass per component into its own slot's digit rows.
    for (unsigned t = 0; t < count; ++t) {
        panic_if(powers[t] >= 2 * n, "rotation power ", powers[t],
                 " out of range [0, 2N)");
        for (unsigned c = 0; c <= k; ++c) {
            kernels.rotateDiffDecompose(
                n, accs[t]->component(c).data(), powers[t], ws.plan,
                ws.batchDigits.data() + (t * (k + 1) + c) * levels);
            ws.batchTorus[t * (k + 1) + c] = &accs[t]->component(c);
        }
    }

    // One forward call for the tile's count*(k+1)*l_b digit
    // polynomials, ...
    NegacyclicFft::forDegree(n).forward(
        ws.batchDigits.data(), ws.batchDigitsF.data(), count * rows);

    // ... one pass over the key for the tile, and one batched inverse
    // for all count*(k+1) components that adds straight into the
    // accumulators.
    accumulateColumns(ggsw, ws, k, count);
    NegacyclicFft::forDegree(n).inverseAdd(
        ws.batchAccF.data(), ws.batchTorus.data(), count * (k + 1));
}

GlweCiphertext
cmuxRotate(const FourierGgsw &ggsw, const GlweCiphertext &input,
           unsigned power)
{
    GlweCiphertext acc = input;
    cmuxRotateInPlace(ggsw, acc, power,
                      BootstrapWorkspace::forThisThread());
    return acc;
}

} // namespace morphling::tfhe

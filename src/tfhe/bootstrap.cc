#include "bootstrap.h"

#include <algorithm>

#include "common/bits.h"
#include "common/logging.h"
#include "telemetry/telemetry.h"
#include "tfhe/fft_dispatch.h"
#include "tfhe/fft_kernels.h"

namespace morphling::tfhe {

void
modSwitchInto(const LweCiphertext &ct, unsigned poly_degree,
              std::vector<std::uint32_t> &out)
{
    const unsigned log2_two_n = log2Floor(poly_degree) + 1;
    out.resize(ct.dimension() + 1);
    for (unsigned i = 0; i < ct.dimension(); ++i)
        out[i] = modSwitchTorus32(ct.mask(i), log2_two_n) %
                 (2 * poly_degree);
    out[ct.dimension()] =
        modSwitchTorus32(ct.body(), log2_two_n) % (2 * poly_degree);
}

std::vector<std::uint32_t>
modSwitch(const LweCiphertext &ct, unsigned poly_degree)
{
    std::vector<std::uint32_t> out;
    modSwitchInto(ct, poly_degree, out);
    return out;
}

void
buildTestPolynomialInto(unsigned poly_degree,
                        const std::vector<Torus32> &lut,
                        TorusPolynomial &out)
{
    const auto space = static_cast<std::uint32_t>(lut.size());
    panic_if(space == 0, "empty LUT");
    panic_if(2 * space > poly_degree,
             "LUT of ", space, " entries does not fit N=", poly_degree);

    if (out.degree() != poly_degree)
        out = TorusPolynomial(poly_degree);
    for (unsigned j = 0; j < poly_degree; ++j) {
        // v = round(j * p / N); v == p marks the top half-slot, which
        // is reached (negated by the X^N = -1 wrap) by message 0 with
        // negative noise.
        const std::uint32_t v =
            (2u * j * space + poly_degree) / (2u * poly_degree);
        out[j] = v < space ? lut[v] : (0 - lut[0]);
    }
}

TorusPolynomial
buildTestPolynomial(unsigned poly_degree, const std::vector<Torus32> &lut)
{
    TorusPolynomial tp(poly_degree);
    buildTestPolynomialInto(poly_degree, lut, tp);
    return tp;
}

TorusPolynomial
constantTestPolynomial(unsigned poly_degree, Torus32 mu)
{
    TorusPolynomial tp(poly_degree);
    for (unsigned j = 0; j < poly_degree; ++j)
        tp[j] = mu;
    return tp;
}

unsigned
blindRotateTile()
{
    return detail::activeBatchKernels().width;
}

namespace {

// The most key polynomials, (k+1)^2 * l_b, of a GGSW that a lane tile
// takes: its per-round key view lives on the stack. Every parameter set
// in params.h has at most 48; a larger key rotates row-lane.
constexpr unsigned kMaxLaneKeyPolys = 128;

} // namespace

void
blindRotateBatch(const BootstrapKey &bsk, const TorusPolynomial &test_poly,
                 const std::vector<std::uint32_t> *switched,
                 GlweCiphertext *accs, unsigned count,
                 BootstrapWorkspace &ws)
{
    const unsigned n = bsk.size();
    const unsigned poly_degree = test_poly.degree();
    const unsigned two_n = 2 * poly_degree;
    const FourierGgsw &first = bsk.entry(0);
    const unsigned cols = first.numCols();
    const unsigned rows = first.numRows();
    const unsigned k = cols - 1;

    // ACC_0 = X^(-b~) * (0,..,0,TP). Negative powers fold into
    // [0, 2N) because X^(2N) = 1; the test polynomial is rotated
    // straight into the accumulator body (rotate-on-construct).
    for (unsigned j = 0; j < count; ++j) {
        panic_if(switched[j].size() != n + 1, "BSK has ", n,
                 " entries, need ", switched[j].size() - 1);
        GlweCiphertext &acc = accs[j];
        if (acc.dimension() != k || acc.polyDegree() != poly_degree)
            acc = GlweCiphertext(k, poly_degree);
        for (unsigned c = 0; c < k; ++c)
            acc.component(c).clear();
        const unsigned b_tilde = switched[j][n] % two_n;
        test_poly.mulByXPowerInto((two_n - b_tilde) % two_n, acc.body());
    }

    // The call's full tiles of W ciphertexts stay lane-resident in
    // ws.laneAcc for all n rounds; the rest (fewer than W, or all of
    // them on the scalar tier or where the lane kernel does not fit)
    // rotate row-lane in tiles of up to W.
    const detail::BatchKernels &kernels = detail::activeBatchKernels();
    const unsigned lanes = kernels.width;
    const bool lane_tiles = lanes > 1 && poly_degree >= 8 &&
                            rows * cols <= kMaxLaneKeyPolys;
    const unsigned resident = lane_tiles ? count - count % lanes : 0;
    const unsigned tile = std::min(count - resident, lanes);
    ws.ensure(k, poly_degree, first.levels(), first.baseBits(),
              std::max(tile, 1u), resident > 0 ? lanes : 0, resident);

    // Coefficient 0 of component c of resident ciphertext t: plane c of
    // tile t / W, lane t mod W; coefficient j lies j*W words on.
    const auto laneOf = [&](unsigned t, unsigned c) {
        return ws.laneAcc.data() +
               (std::size_t{t / lanes} * cols + c) * poly_degree * lanes +
               t % lanes;
    };
    for (unsigned t = 0; t < resident; ++t)
        for (unsigned c = 0; c < cols; ++c) {
            const Torus32 *src = accs[t].component(c).data();
            Torus32 *dst = laneOf(t, c);
            for (unsigned j = 0; j < poly_degree; ++j)
                dst[j * lanes] = src[j];
        }

    // Every ciphertext takes BSK_i before any takes BSK_{i+1}. A lane
    // whose a~_i is 0 runs its round too: the centred digits of 0 are
    // 0, so the round adds exactly 0. A row-lane ciphertext whose a~_i
    // is 0 skips it: the X^0 CMux output equals its input.
    const detail::NegacyclicView &view =
        NegacyclicFft::forDegree(poly_degree).view();
    const double *key_re[kMaxLaneKeyPolys];
    const double *key_im[kMaxLaneKeyPolys];
    unsigned powers[detail::kMaxFftLanes];
    GlweCiphertext *members[detail::kMaxFftLanes];
    for (unsigned i = 0; i < n; ++i) {
        const FourierGgsw &bsk_i = bsk.entry(i);
        if (resident > 0) {
            panic_if(bsk_i.numRows() != rows || bsk_i.numCols() != cols,
                     "GGSW/GLWE shape mismatch");
            for (unsigned r = 0; r < rows; ++r)
                for (unsigned c = 0; c < cols; ++c) {
                    key_re[r * cols + c] = bsk_i.at(r, c).reData();
                    key_im[r * cols + c] = bsk_i.at(r, c).imData();
                }
        }
        for (unsigned t = 0; t < resident; t += lanes) {
            for (unsigned w = 0; w < lanes; ++w)
                powers[w] = switched[t + w][i] % two_n;
            MORPHLING_SPAN_FINE("tfhe", "cmux");
            kernels.laneTileCmux(view, ws.plan, cols, powers, key_re,
                                 key_im, laneOf(t, 0),
                                 ws.laneDigits.data(),
                                 ws.digitPlanes.data(),
                                 ws.accPlanes.data());
        }

        unsigned filled = 0;
        const auto runRowTile = [&] {
            MORPHLING_SPAN_FINE("tfhe", "cmux");
            cmuxRotateTileInPlace(bsk_i, members, powers, filled, ws);
            filled = 0;
        };
        for (unsigned j = resident; j < count; ++j) {
            const unsigned a_tilde = switched[j][i] % two_n;
            if (a_tilde == 0)
                continue;
            members[filled] = &accs[j];
            powers[filled] = a_tilde;
            if (++filled == tile)
                runRowTile();
        }
        if (filled > 0)
            runRowTile();
    }

    for (unsigned t = 0; t < resident; ++t)
        for (unsigned c = 0; c < cols; ++c) {
            const Torus32 *src = laneOf(t, c);
            Torus32 *dst = accs[t].component(c).data();
            for (unsigned j = 0; j < poly_degree; ++j)
                dst[j] = src[j * lanes];
        }
}

void
blindRotate(const BootstrapKey &bsk, const TorusPolynomial &test_poly,
            const std::vector<std::uint32_t> &switched,
            GlweCiphertext &acc, BootstrapWorkspace &ws)
{
    blindRotateBatch(bsk, test_poly, &switched, &acc, 1, ws);
}

GlweCiphertext
blindRotate(const BootstrapKey &bsk, const TorusPolynomial &test_poly,
            const std::vector<std::uint32_t> &switched)
{
    GlweCiphertext acc;
    blindRotate(bsk, test_poly, switched, acc,
                BootstrapWorkspace::forThisThread());
    return acc;
}

void
bootstrapInto(const BootstrapKey &bsk, const KeySwitchKey &ksk,
              const TorusPolynomial &test_poly, const LweCiphertext &ct,
              LweCiphertext &out, BootstrapWorkspace &ws)
{
    MORPHLING_SPAN("tfhe", "bootstrap");
    {
        MORPHLING_SPAN("tfhe", "mod_switch");
        modSwitchInto(ct, test_poly.degree(), ws.switched);
    }
    {
        MORPHLING_SPAN("tfhe", "blind_rotate");
        blindRotate(bsk, test_poly, ws.switched, ws.acc, ws);
    }
    {
        MORPHLING_SPAN("tfhe", "sample_extract");
        ws.acc.sampleExtractAtInto(0, ws.extracted);
    }
    {
        MORPHLING_SPAN("tfhe", "key_switch");
        ksk.applyInto(ws.extracted, out);
    }
}

LweCiphertext
bootstrapNoKeySwitch(const KeySet &keys, const LweCiphertext &ct,
                     const TorusPolynomial &test_poly)
{
    auto &ws = BootstrapWorkspace::forThisThread();
    modSwitchInto(ct, keys.params.polyDegree, ws.switched);
    blindRotate(keys.bsk, test_poly, ws.switched, ws.acc, ws);
    return ws.acc.sampleExtract();
}

LweCiphertext
programmableBootstrap(const KeySet &keys, const LweCiphertext &ct,
                      const std::vector<Torus32> &lut)
{
    auto &ws = BootstrapWorkspace::forThisThread();
    buildTestPolynomialInto(keys.params.polyDegree, lut, ws.testPoly);
    LweCiphertext out;
    bootstrapInto(keys.bsk, keys.ksk, ws.testPoly, ct, out, ws);
    return out;
}

LweCiphertext
signBootstrap(const KeySet &keys, const LweCiphertext &ct, Torus32 mu)
{
    const TorusPolynomial tp =
        constantTestPolynomial(keys.params.polyDegree, mu);
    const LweCiphertext extracted = bootstrapNoKeySwitch(keys, ct, tp);
    return keys.ksk.apply(extracted);
}

TorusPolynomial
buildMultiTestPolynomial(unsigned poly_degree,
                         const std::vector<std::vector<Torus32>> &luts)
{
    panic_if(luts.empty(), "need at least one LUT");
    const auto nu = static_cast<std::uint32_t>(luts.size());
    const auto space = static_cast<std::uint32_t>(luts[0].size());
    for (const auto &lut : luts)
        panic_if(lut.size() != space, "LUT sizes must match");

    const std::uint32_t slot = poly_degree / space;
    fatal_if(slot * space != poly_degree,
             "message space must divide N");
    const std::uint32_t spacing = slot / nu;
    fatal_if(spacing * nu != slot || spacing < 2,
             "cannot pack ", nu, " LUTs of ", space,
             " entries into N = ", poly_degree);

    TorusPolynomial tp(poly_degree);
    for (unsigned j = 0; j < poly_degree; ++j) {
        // Decompose j (shifted by half a sub-slot so noise rounds to
        // the nearest function copy) into message slot, function
        // index, and jitter.
        const std::uint32_t t = j + spacing / 2;
        const std::uint32_t m = t / slot;
        const std::uint32_t func = (t % slot) / spacing;
        // The top wrap region belongs to message 0 negated
        // (X^N = -1), exactly as in the single-LUT builder.
        tp[j] = m < space ? luts[func][m] : (0 - luts[func][0]);
    }
    return tp;
}

std::vector<LweCiphertext>
multiLutBootstrap(const KeySet &keys, const LweCiphertext &ct,
                  const std::vector<std::vector<Torus32>> &luts)
{
    const unsigned poly_degree = keys.params.polyDegree;
    const TorusPolynomial tp =
        buildMultiTestPolynomial(poly_degree, luts);
    const auto switched = modSwitch(ct, poly_degree);
    const GlweCiphertext acc = blindRotate(keys.bsk, tp, switched);

    const auto nu = static_cast<unsigned>(luts.size());
    const unsigned spacing =
        poly_degree / static_cast<unsigned>(luts[0].size()) / nu;
    std::vector<LweCiphertext> out;
    out.reserve(nu);
    for (unsigned i = 0; i < nu; ++i) {
        // One cheap extraction per function; the expensive blind
        // rotation is shared.
        out.push_back(
            keys.ksk.apply(acc.sampleExtractAt(i * spacing)));
    }
    return out;
}

} // namespace morphling::tfhe

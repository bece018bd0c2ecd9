/**
 * @file
 * Generic implementation of the batched negacyclic FFT kernels,
 * templated over a vector-traits type and instantiated once per ISA
 * translation unit (scalar / AVX2 / AVX-512 / NEON).
 *
 * A traits type V supplies:
 *   - kWidth: lanes per vector (1, 2, 4, 8)
 *   - Vec:    the register type (double, float64x2_t, __m256d, __m512d)
 *   - load/store (unaligned-tolerant), splat, add, sub, mul
 *   - cvtInt32: widen kWidth int32 coefficients to doubles
 *   - transpose: in-place kWidth x kWidth tile transpose of Vec rows
 *   - addRounded: p[0..kWidth) += roundToTorus(each lane)
 *   - UVec: 2 * kWidth uint32 lanes (a GCC/Clang vector extension type,
 *     so the lane tile's integer arithmetic is written with operators)
 *   - gather: UVec of p[idx[e]] for each lane e
 *
 * Data layout: W polynomials are processed per call with coefficients
 * lane-interleaved — element j of lane (polynomial) w lives at
 * scratch[j*W + w]. A butterfly at position j is then one W-wide vector
 * op with the twiddle splat across lanes, so every stage runs at full
 * width regardless of its span.
 *
 * Two users fill those lanes. The row-lane entry points (forwardW,
 * inverseW) take W separate polynomials and transpose them in and out
 * of the interleaved scratch, in the same pass as the fold+twist and
 * the untwist+round store. The lane tile (laneTileCmux) keeps W
 * ciphertexts interleaved from one CMux round to the next, so it never
 * transposes: its forward stage 0 loads digits and folds and twists
 * them as it loads, and its inverse stage 0 untwists, rounds and adds
 * as it stores.
 *
 * Sweep order. A plane is N/2 * W complex doubles (64 KiB at set I on
 * AVX-512, more than L1). Stage 0 sweeps the whole plane; then, since
 * every later stage's blocks lie inside one quarter of the plane, all
 * later stages run depth-first on each quarter in turn, which stays in
 * L1 between stages. The radix-2 tail (log2(N/2) odd) runs inside the
 * last radix-4 stage, on each 8-position block right after its radix-4
 * butterflies. The inverse mirrors this. Only the order of independent
 * butterflies depends on this blocking, never their inputs or
 * expressions.
 *
 * Registers. GCC at -O2 does not unroll a loop over the W rows of a
 * transpose or the four accumulators of a MAC block, and an array
 * indexed by a loop counter lives on the stack. Those loops go through
 * unroll<N>, which expands them at compile time, so every index is a
 * constant and the arrays become registers.
 *
 * Bit-identity contract: each lane executes exactly the operation
 * sequence of the W = 1 instantiation per element (multiplies and adds
 * in the same order, no FMA contraction, rounding identical to
 * roundToTorus), so every tier's outputs are bit-identical to the
 * scalar tier's. Compile kernel TUs with -ffp-contract=off.
 *
 * The integer kernels at the end (rotate-and-decompose, key-switch row
 * update) use no traits: they are plain loops that each ISA
 * translation unit's compiler flags vectorize. They are still
 * templates over V so that every tier gets its own instantiation, with
 * internal linkage, compiled for its own ISA.
 */

#ifndef MORPHLING_TFHE_FFT_KERNELS_IMPL_H
#define MORPHLING_TFHE_FFT_KERNELS_IMPL_H

#include <cstring>
#include <utility>

#include "tfhe/fft_kernels.h"

namespace morphling::tfhe::detail {

template <class F, unsigned... I>
inline void
unrollImpl(F &f, std::integer_sequence<unsigned, I...>)
{
    (f(std::integral_constant<unsigned, I>{}), ...);
}

/** f(i) for i = 0..N-1, expanded at compile time: each i is a
 *  std::integral_constant, so arrays indexed by it stay in registers. */
template <unsigned N, class F>
inline void
unroll(F &&f)
{
    unrollImpl(f, std::make_integer_sequence<unsigned, N>{});
}

/** Fold + twist W integer polynomials and transpose them into the
 *  lane-interleaved scratch: one fused pass over the inputs. */
template <class V>
void
foldTwistTransposeIn(const NegacyclicView &t,
                     const std::int32_t *const *in, double *s_re,
                     double *s_im)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    const unsigned half = t.half;
    for (unsigned j0 = 0; j0 < half; j0 += W) {
        const Vec tr = V::load(t.twistRe + j0);
        const Vec ti = V::load(t.twistIm + j0);
        Vec row_re[W], row_im[W];
        unroll<W>([&](auto w) {
            // x_j = (a_j + i * a_{j+N/2}) * e^{i*pi*j/N}, the same
            // expression order on every tier.
            const Vec lo = V::cvtInt32(in[w] + j0);
            const Vec hi = V::cvtInt32(in[w] + j0 + half);
            row_re[w] = V::sub(V::mul(lo, tr), V::mul(hi, ti));
            row_im[w] = V::add(V::mul(lo, ti), V::mul(hi, tr));
        });
        V::transpose(row_re);
        V::transpose(row_im);
        unroll<W>([&](auto e) {
            V::store(s_re + (j0 + e) * W, row_re[e]);
            V::store(s_im + (j0 + e) * W, row_im[e]);
        });
    }
}

/** The radix-2 tail's butterflies (p, p + 1), p even, on positions
 *  [lo, hi): add/subtract only, the same in both directions. */
template <class V>
void
radix2Pairs(unsigned lo, unsigned hi, double *re, double *im)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    for (unsigned p = lo; p < hi; p += 2) {
        double *ar = re + p * W, *br = ar + W;
        double *ai = im + p * W, *bi = ai + W;
        const Vec xr = V::load(ar), xi = V::load(ai);
        const Vec yr = V::load(br), yi = V::load(bi);
        V::store(ar, V::add(xr, yr));
        V::store(ai, V::add(xi, yi));
        V::store(br, V::sub(xr, yr));
        V::store(bi, V::sub(xi, yi));
    }
}

/** W complex values, one per lane: what a stage loads or stores at one
 *  position. */
template <class V>
struct CVec
{
    typename V::Vec re, im;
};

/** Loads position p's complex value from an interleaved plane: the
 *  input of every forward stage but a lane tile's stage 0. */
template <class V>
struct PlaneLoad
{
    const double *re, *im;

    CVec<V> operator()(unsigned p) const
    {
        return {V::load(re + p * V::kWidth), V::load(im + p * V::kWidth)};
    }
};

/** Stores position p's complex value into an interleaved plane: the
 *  output of every inverse stage but a lane tile's stage 0. */
template <class V>
struct PlaneStore
{
    double *re, *im;

    void operator()(unsigned p, typename V::Vec xr,
                    typename V::Vec xi) const
    {
        V::store(re + p * V::kWidth, xr);
        V::store(im + p * V::kWidth, xi);
    }
};

/** Forward DIF radix-4 stage s on positions [lo, hi), whole blocks of
 *  its span, writing the plane (re, im). Its inputs come from `load`:
 *  the plane itself, or a lane tile's digits for stage 0. When the
 *  transform has a radix-2 tail, the last stage runs it on each block
 *  right after the block's radix-4 butterflies. */
template <class V, class Load>
void
forwardStage(const NegacyclicView &t, unsigned s, unsigned lo,
             unsigned hi, double *re, double *im, const Load &load)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    const unsigned len = t.stageLen[s];
    const unsigned q = len / 4;
    const bool tail = t.radix2Tail && s + 1 == t.numStages;
    const double *tw = t.stageTw[s];
    const double *w1r = tw + 0 * q, *w1i = tw + 1 * q;
    const double *w2r = tw + 2 * q, *w2i = tw + 3 * q;
    const double *w3r = tw + 4 * q, *w3i = tw + 5 * q;
    for (unsigned base = lo; base < hi; base += len) {
        for (unsigned j = 0; j < q; ++j) {
            const unsigned p0 = base + j;
            const auto [r0, i0] = load(p0);
            const auto [r1, i1] = load(p0 + q);
            const auto [r2, i2] = load(p0 + 2 * q);
            const auto [r3, i3] = load(p0 + 3 * q);
            double *p0r = re + p0 * W;
            double *p1r = p0r + q * W;
            double *p2r = p1r + q * W;
            double *p3r = p2r + q * W;
            double *p0i = im + p0 * W;
            double *p1i = p0i + q * W;
            double *p2i = p1i + q * W;
            double *p3i = p2i + q * W;
            const Vec t0r = V::add(r0, r2), t0i = V::add(i0, i2);
            const Vec t1r = V::sub(r0, r2), t1i = V::sub(i0, i2);
            const Vec t2r = V::add(r1, r3), t2i = V::add(i1, i3);
            const Vec t3r = V::sub(r1, r3), t3i = V::sub(i1, i3);
            V::store(p0r, V::add(t0r, t2r));
            V::store(p0i, V::add(t0i, t2i));
            // y1 = (t1 - i*t3) * w, y2 = (t0 - t2) * w^2,
            // y3 = (t1 + i*t3) * w^3 (forward kernel e^{-i...}).
            const Vec y1r = V::add(t1r, t3i);
            const Vec y1i = V::sub(t1i, t3r);
            const Vec v1r = V::splat(w1r[j]), v1i = V::splat(w1i[j]);
            V::store(p1r, V::sub(V::mul(y1r, v1r), V::mul(y1i, v1i)));
            V::store(p1i, V::add(V::mul(y1r, v1i), V::mul(y1i, v1r)));
            const Vec y2r = V::sub(t0r, t2r);
            const Vec y2i = V::sub(t0i, t2i);
            const Vec v2r = V::splat(w2r[j]), v2i = V::splat(w2i[j]);
            V::store(p2r, V::sub(V::mul(y2r, v2r), V::mul(y2i, v2i)));
            V::store(p2i, V::add(V::mul(y2r, v2i), V::mul(y2i, v2r)));
            const Vec y3r = V::sub(t1r, t3i);
            const Vec y3i = V::add(t1i, t3r);
            const Vec v3r = V::splat(w3r[j]), v3i = V::splat(w3i[j]);
            V::store(p3r, V::sub(V::mul(y3r, v3r), V::mul(y3i, v3i)));
            V::store(p3i, V::add(V::mul(y3r, v3i), V::mul(y3i, v3r)));
        }
        if (tail)
            radix2Pairs<V>(base, base + len, re, im);
    }
}

/** Inverse DIT radix-4 stage s on positions [lo, hi), whole blocks of
 *  its span, reading the plane (re, im): the exact transpose of
 *  forwardStage, so a last stage with a radix-2 tail runs it on each
 *  block before the block's radix-4 butterflies. Its outputs go to
 *  `store`: the plane itself, or a lane tile's accumulators for stage
 *  0. */
template <class V, class Store>
void
inverseStage(const NegacyclicView &t, unsigned s, unsigned lo,
             unsigned hi, double *re, double *im, const Store &store)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    const unsigned len = t.stageLen[s];
    const unsigned q = len / 4;
    const bool tail = t.radix2Tail && s + 1 == t.numStages;
    const double *tw = t.stageTw[s];
    const double *w1r = tw + 0 * q, *w1i = tw + 1 * q;
    const double *w2r = tw + 2 * q, *w2i = tw + 3 * q;
    const double *w3r = tw + 4 * q, *w3i = tw + 5 * q;
    for (unsigned base = lo; base < hi; base += len) {
        if (tail)
            radix2Pairs<V>(base, base + len, re, im);
        for (unsigned j = 0; j < q; ++j) {
            const unsigned p0 = base + j;
            const double *p0r = re + p0 * W;
            const double *p1r = p0r + q * W;
            const double *p2r = p1r + q * W;
            const double *p3r = p2r + q * W;
            const double *p0i = im + p0 * W;
            const double *p1i = p0i + q * W;
            const double *p2i = p1i + q * W;
            const double *p3i = p2i + q * W;
            const Vec r0 = V::load(p0r), i0 = V::load(p0i);
            const Vec r1 = V::load(p1r), i1 = V::load(p1i);
            const Vec r2 = V::load(p2r), i2 = V::load(p2i);
            const Vec r3 = V::load(p3r), i3 = V::load(p3i);
            // u_s = y_s * conj(w^s); then the conjugate butterfly.
            const Vec v1r = V::splat(w1r[j]), v1i = V::splat(w1i[j]);
            const Vec v2r = V::splat(w2r[j]), v2i = V::splat(w2i[j]);
            const Vec v3r = V::splat(w3r[j]), v3i = V::splat(w3i[j]);
            const Vec u1r = V::add(V::mul(r1, v1r), V::mul(i1, v1i));
            const Vec u1i = V::sub(V::mul(i1, v1r), V::mul(r1, v1i));
            const Vec u2r = V::add(V::mul(r2, v2r), V::mul(i2, v2i));
            const Vec u2i = V::sub(V::mul(i2, v2r), V::mul(r2, v2i));
            const Vec u3r = V::add(V::mul(r3, v3r), V::mul(i3, v3i));
            const Vec u3i = V::sub(V::mul(i3, v3r), V::mul(r3, v3i));
            const Vec t0r = V::add(r0, u2r), t0i = V::add(i0, u2i);
            const Vec t1r = V::sub(r0, u2r), t1i = V::sub(i0, u2i);
            const Vec t2r = V::add(u1r, u3r), t2i = V::add(u1i, u3i);
            const Vec t3r = V::sub(u1r, u3r), t3i = V::sub(u1i, u3i);
            store(p0, V::add(t0r, t2r), V::add(t0i, t2i));
            store(p0 + q, V::sub(t1r, t3i), V::add(t1i, t3r));
            store(p0 + 2 * q, V::sub(t0r, t2r), V::sub(t0i, t2i));
            store(p0 + 3 * q, V::add(t1r, t3i), V::sub(t1i, t3r));
        }
    }
}

/** All forward stages on the interleaved layout, stage 0 reading its
 *  inputs through `load0`: stage 0 sweeps the whole plane, then every
 *  later stage (its blocks all lie inside one quarter of the plane)
 *  runs depth-first on each quarter, which stays in L1 from one stage
 *  to the next. N = 4 has no radix-4 stage, so `load0` must read the
 *  plane itself there. */
template <class V, class Load>
void
forwardStages(const NegacyclicView &t, double *re, double *im,
              const Load &load0)
{
    if (t.numStages == 0) // N = 4: the radix-2 tail alone
        return radix2Pairs<V>(0, t.half, re, im);
    forwardStage<V>(t, 0, 0, t.half, re, im, load0);
    const unsigned quarter = t.half / 4;
    const PlaneLoad<V> plane{re, im};
    for (unsigned lo = 0; lo < t.half; lo += quarter)
        for (unsigned s = 1; s < t.numStages; ++s)
            forwardStage<V>(t, s, lo, lo + quarter, re, im, plane);
}

/** All inverse stages, the forward order reversed: each quarter from
 *  its smallest span (radix-2 tail first) up to stage 1, then stage 0
 *  over the whole plane, writing through `store0`. As in the forward,
 *  N = 4 needs `store0` to write the plane itself. */
template <class V, class Store>
void
inverseStages(const NegacyclicView &t, double *re, double *im,
              const Store &store0)
{
    if (t.numStages == 0)
        return radix2Pairs<V>(0, t.half, re, im);
    const unsigned quarter = t.half / 4;
    const PlaneStore<V> plane{re, im};
    for (unsigned lo = 0; lo < t.half; lo += quarter)
        for (unsigned s = t.numStages; s-- > 1;)
            inverseStage<V>(t, s, lo, lo + quarter, re, im, plane);
    inverseStage<V>(t, 0, 0, t.half, re, im, store0);
}

/** De-interleave the forward spectra back into each polynomial's SoA
 *  arrays (the digit-reversed FourierPolynomial order). */
template <class V>
void
transposeOut(const NegacyclicView &t, const double *s_re,
             const double *s_im, double *const *out_re,
             double *const *out_im)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    for (unsigned j0 = 0; j0 < t.half; j0 += W) {
        Vec row_re[W], row_im[W];
        unroll<W>([&](auto e) {
            row_re[e] = V::load(s_re + (j0 + e) * W);
            row_im[e] = V::load(s_im + (j0 + e) * W);
        });
        V::transpose(row_re);
        V::transpose(row_im);
        unroll<W>([&](auto w) {
            V::store(out_re[w] + j0, row_re[w]);
            V::store(out_im[w] + j0, row_im[w]);
        });
    }
}

/** Interleave W spectra into the scratch ahead of the inverse stages. */
template <class V>
void
spectraTransposeIn(const NegacyclicView &t, const double *const *in_re,
                   const double *const *in_im, double *s_re, double *s_im)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    for (unsigned j0 = 0; j0 < t.half; j0 += W) {
        Vec row_re[W], row_im[W];
        unroll<W>([&](auto w) {
            row_re[w] = V::load(in_re[w] + j0);
            row_im[w] = V::load(in_im[w] + j0);
        });
        V::transpose(row_re);
        V::transpose(row_im);
        unroll<W>([&](auto e) {
            V::store(s_re + (j0 + e) * W, row_re[e]);
            V::store(s_im + (j0 + e) * W, row_im[e]);
        });
    }
}

/** Untwist + scale + round the inverse output and add it into W torus
 *  polynomials, fused with the de-interleaving transpose. V::addRounded
 *  rounds exactly as roundToTorus does, so every tier wraps
 *  identically. */
template <class V>
void
untwistRoundAddOut(const NegacyclicView &t, const double *s_re,
                   const double *s_im, Torus32 *const *out)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    const unsigned half = t.half;
    const Vec sc = V::splat(1.0 / static_cast<double>(half));
    for (unsigned j0 = 0; j0 < half; j0 += W) {
        Vec row_re[W], row_im[W];
        unroll<W>([&](auto e) {
            row_re[e] = V::load(s_re + (j0 + e) * W);
            row_im[e] = V::load(s_im + (j0 + e) * W);
        });
        V::transpose(row_re);
        V::transpose(row_im);
        const Vec tr = V::load(t.twistRe + j0);
        const Vec ti = V::load(t.twistIm + j0);
        unroll<W>([&](auto w) {
            const Vec zr = V::mul(row_re[w], sc);
            const Vec zi = V::mul(row_im[w], sc);
            V::addRounded(out[w] + j0,
                          V::add(V::mul(zr, tr), V::mul(zi, ti)));
            V::addRounded(out[w] + j0 + half,
                          V::sub(V::mul(zi, tr), V::mul(zr, ti)));
        });
    }
}

template <class V>
void
forwardWImpl(const NegacyclicView &t, const std::int32_t *const *in,
             double *const *out_re, double *const *out_im,
             double *s_re, double *s_im)
{
    foldTwistTransposeIn<V>(t, in, s_re, s_im);
    forwardStages<V>(t, s_re, s_im, PlaneLoad<V>{s_re, s_im});
    transposeOut<V>(t, s_re, s_im, out_re, out_im);
}

template <class V>
void
inverseWImpl(const NegacyclicView &t, const double *const *in_re,
             const double *const *in_im, Torus32 *const *out,
             double *s_re, double *s_im)
{
    spectraTransposeIn<V>(t, in_re, in_im, s_re, s_im);
    inverseStages<V>(t, s_re, s_im, PlaneStore<V>{s_re, s_im});
    untwistRoundAddOut<V>(t, s_re, s_im, out);
}

/**
 * A lane tile's rotate-and-decompose, the Private-A1 rotator's read of
 * X^a * ACC by address offset: for each component u < cols and position
 * j, lane w's digit rows get the gadget digits of
 * (X^powers[w] * ACC_w - ACC_w)[j]. Positions go in pairs (j, j + 1),
 * so one UVec holds both positions of all W lanes, and one gather reads
 * them. Lane e*W + w of a pair reads its interleaved source
 * ((j + e - a_w) mod N) * W + w, which is t & (N*W - 1) for
 * t = (j + e)*W + w - a_w*W; t < 0 (its top bit) marks a term wrapped
 * past X^N, negated once more, exactly as rotateDiffDecompose does.
 */
template <class V>
void
laneRotateDecompose(unsigned n, const GadgetPlan &plan, unsigned cols,
                    const unsigned *powers, const Torus32 *acc,
                    std::int32_t *digits)
{
    constexpr unsigned W = V::kWidth;
    using UVec = typename V::UVec;
    std::uint32_t base_lanes[2 * W], flip_lanes[2 * W];
    for (unsigned e = 0; e < 2; ++e) {
        for (unsigned w = 0; w < W; ++w) {
            // X^(a+N) = -X^a: fold the power into [0, N) and a sign.
            const unsigned a = powers[w] < n ? powers[w] : powers[w] - n;
            base_lanes[e * W + w] = (e * W + w) - a * W;
            flip_lanes[e * W + w] = powers[w] < n ? 0u : ~0u;
        }
    }
    UVec base, flip;
    std::memcpy(&base, base_lanes, sizeof base);
    std::memcpy(&flip, flip_lanes, sizeof flip);
    const std::uint32_t wrap = n * W - 1;
    const std::uint32_t offset = plan.offset;
    const std::uint32_t mask = plan.mask;
    const auto half = static_cast<std::uint32_t>(plan.half);
    const unsigned levels = plan.levels;
    const unsigned base_bits = plan.baseBits;
    const std::size_t poly = std::size_t{n} * W;
    for (unsigned u = 0; u < cols; ++u) {
        const Torus32 *src = acc + u * poly;
        std::int32_t *dst = digits + u * levels * poly;
        for (unsigned j = 0; j < n; j += 2) {
            const UVec t = base + j * W;
            // (y ^ neg) - neg is y for neg = 0 and -y for neg = ~0.
            const UVec neg = (0u - (t >> 31)) ^ flip;
            const UVec rot = V::gather(src, t & wrap);
            UVec self;
            std::memcpy(&self, src + j * W, sizeof self);
            const UVec shifted = ((rot ^ neg) - neg) - self + offset;
            for (unsigned l = 0; l < levels; ++l) {
                const unsigned shift = 32 - (l + 1) * base_bits;
                const UVec digit = ((shifted >> shift) & mask) - half;
                std::memcpy(dst + l * poly + j * W, &digit, sizeof digit);
            }
        }
    }
}

/**
 * One CMux round of a lane-resident tile (BatchKernels::laneTileCmux).
 * Lane w carries ciphertext w from its accumulator, through its digit
 * rows and spectra, back to its accumulator, so nothing is transposed.
 */
template <class V>
void
laneTileCmuxImpl(const NegacyclicView &t, const GadgetPlan &plan,
                 unsigned cols, const unsigned *powers,
                 const double *const *key_re, const double *const *key_im,
                 Torus32 *acc, std::int32_t *digits, double *digit_plane,
                 double *acc_plane)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    const unsigned half = t.half;
    const unsigned rows = cols * plan.levels;
    const std::size_t poly = std::size_t{t.n} * W;
    const std::size_t plane = std::size_t{half} * W;
    double *const d_re = digit_plane;
    double *const d_im = digit_plane + rows * plane;
    double *const a_re = acc_plane;
    double *const a_im = acc_plane + cols * plane;

    laneRotateDecompose<V>(t.n, plan, cols, powers, acc, digits);

    // Forward: stage 0 folds and twists each digit row as it loads it,
    // x_p = (d_p + i * d_{p+N/2}) * e^{i*pi*p/N} with the twist factor
    // splat across the lanes, the expressions of foldTwistTransposeIn.
    for (unsigned r = 0; r < rows; ++r) {
        const std::int32_t *d = digits + r * poly;
        const auto foldTwist = [&](unsigned p) {
            const Vec lo = V::cvtInt32(d + p * W);
            const Vec hi = V::cvtInt32(d + (p + half) * W);
            const Vec tr = V::splat(t.twistRe[p]);
            const Vec ti = V::splat(t.twistIm[p]);
            return CVec<V>{V::sub(V::mul(lo, tr), V::mul(hi, ti)),
                           V::add(V::mul(lo, ti), V::mul(hi, tr))};
        };
        forwardStages<V>(t, d_re + r * plane, d_im + r * plane, foldTwist);
    }

    // MAC: output column c is the sum over r of digit plane r times key
    // polynomial (r, c), each key coefficient broadcast across the
    // lanes. Four positions per block give eight independent
    // accumulator chains, held in registers across all rows; each
    // starts from +0.0 and adds the rows in order with mulAdd's
    // expressions, so every lane matches the row-lane MAC bit for bit.
    constexpr unsigned kBlock = 4;
    for (unsigned j0 = 0; j0 < half; j0 += kBlock) {
        for (unsigned c = 0; c < cols; ++c) {
            Vec pr[kBlock] = {}, pi[kBlock] = {}; // +0.0
            for (unsigned r = 0; r < rows; ++r) {
                const double *br = key_re[r * cols + c] + j0;
                const double *bi = key_im[r * cols + c] + j0;
                const double *ar = d_re + r * plane + j0 * W;
                const double *ai = d_im + r * plane + j0 * W;
                unroll<kBlock>([&](auto b) {
                    const Vec va_r = V::load(ar + b * W);
                    const Vec va_i = V::load(ai + b * W);
                    const Vec vb_r = V::splat(br[b]);
                    const Vec vb_i = V::splat(bi[b]);
                    pr[b] = V::add(pr[b], V::sub(V::mul(va_r, vb_r),
                                                 V::mul(va_i, vb_i)));
                    pi[b] = V::add(pi[b], V::add(V::mul(va_r, vb_i),
                                                 V::mul(va_i, vb_r)));
                });
            }
            unroll<kBlock>([&](auto b) {
                V::store(a_re + c * plane + (j0 + b) * W, pr[b]);
                V::store(a_im + c * plane + (j0 + b) * W, pi[b]);
            });
        }
    }

    // Inverse: stage 0 untwists, scales and rounds each output and adds
    // it into the accumulator as it stores it, the expressions of
    // untwistRoundAddOut.
    const Vec sc = V::splat(1.0 / static_cast<double>(half));
    for (unsigned c = 0; c < cols; ++c) {
        Torus32 *out = acc + c * poly;
        const auto untwistRoundAdd = [&](unsigned p, Vec yr, Vec yi) {
            const Vec zr = V::mul(yr, sc);
            const Vec zi = V::mul(yi, sc);
            const Vec tr = V::splat(t.twistRe[p]);
            const Vec ti = V::splat(t.twistIm[p]);
            V::addRounded(out + p * W,
                          V::add(V::mul(zr, tr), V::mul(zi, ti)));
            V::addRounded(out + (p + half) * W,
                          V::sub(V::mul(zi, tr), V::mul(zr, ti)));
        };
        inverseStages<V>(t, a_re + c * plane, a_im + c * plane,
                         untwistRoundAdd);
    }
}

template <class V>
void
mulAddImpl(unsigned count, const double *ar, const double *ai,
           const double *br, const double *bi, double *pr, double *pi)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    unsigned i = 0;
    for (; i + W <= count; i += W) {
        const Vec va_r = V::load(ar + i), va_i = V::load(ai + i);
        const Vec vb_r = V::load(br + i), vb_i = V::load(bi + i);
        V::store(pr + i,
                 V::add(V::load(pr + i),
                        V::sub(V::mul(va_r, vb_r), V::mul(va_i, vb_i))));
        V::store(pi + i,
                 V::add(V::load(pi + i),
                        V::add(V::mul(va_r, vb_i), V::mul(va_i, vb_r))));
    }
    for (; i < count; ++i) {
        pr[i] += ar[i] * br[i] - ai[i] * bi[i];
        pi[i] += ar[i] * bi[i] + ai[i] * br[i];
    }
}

template <class V>
void
addImpl(unsigned count, const double *ar, const double *ai, double *pr,
        double *pi)
{
    constexpr unsigned W = V::kWidth;
    unsigned i = 0;
    for (; i + W <= count; i += W) {
        V::store(pr + i, V::add(V::load(pr + i), V::load(ar + i)));
        V::store(pi + i, V::add(V::load(pi + i), V::load(ai + i)));
    }
    for (; i < count; ++i) {
        pr[i] += ar[i];
        pi[i] += ai[i];
    }
}

/**
 * Digits of one run of the rotated difference: for i < count,
 * r = (rot[i] negated when neg is all ones) - self[i], and digit row l
 * gets digit l of r at index first + i. The run is walked in blocks:
 * the offset differences of a block go to a stack buffer (which stays
 * in L1), then each level is one shift/mask/subtract loop over it, so
 * acc is read once and every digit written once.
 */
template <class V>
void
decomposeRotatedRun(const Torus32 *rot, std::uint32_t neg,
                    const Torus32 *self, unsigned count,
                    unsigned first, const GadgetPlan &plan,
                    std::int32_t *const *digits)
{
    constexpr unsigned kBlock = 256;
    const std::uint32_t offset = plan.offset;
    const std::uint32_t mask = plan.mask;
    const std::int32_t half = plan.half;
    const unsigned levels = plan.levels;
    const unsigned base_bits = plan.baseBits;
    std::uint32_t shifted[kBlock];
    for (unsigned b = 0; b < count; b += kBlock) {
        const unsigned m = count - b < kBlock ? count - b : kBlock;
        // Block-relative pointers: indexing with b + i would let the
        // unsigned sum wrap as far as the compiler knows, and it would
        // gather element by element instead of loading vectors.
        const Torus32 *r = rot + b;
        const Torus32 *x = self + b;
        // (y ^ neg) - neg is y for neg = 0 and -y for neg = ~0.
        for (unsigned i = 0; i < m; ++i)
            shifted[i] = ((r[i] ^ neg) - neg) - x[i] + offset;
        for (unsigned l = 0; l < levels; ++l) {
            const unsigned shift = 32 - (l + 1) * base_bits;
            std::int32_t *__restrict d = digits[l] + first + b;
            for (unsigned i = 0; i < m; ++i)
                d[i] = static_cast<std::int32_t>((shifted[i] >> shift) &
                                                 mask) -
                       half;
        }
    }
}

template <class V>
void
rotateDiffDecomposeImpl(unsigned n, const Torus32 *acc, unsigned power,
                        const GadgetPlan &plan, std::int32_t *const *digits)
{
    // X^(a+N) = -X^a: fold the power into [0, N) and a sign. Output
    // j < a reads acc[j + N - a], wrapped past X^N and so negated once
    // more; output j >= a reads acc[j - a].
    const unsigned a = power < n ? power : power - n;
    const std::uint32_t flip = power < n ? 0u : ~0u;
    decomposeRotatedRun<V>(acc + n - a, ~flip, acc, a, 0, plan, digits);
    decomposeRotatedRun<V>(acc, flip, acc + a, n - a, a, plan, digits);
}

template <class V>
void
subScaledRowImpl(unsigned count, std::uint32_t scale,
                 const Torus32 *__restrict row, Torus32 *__restrict out)
{
    for (unsigned w = 0; w < count; ++w)
        out[w] -= scale * row[w];
}

/** Assemble one tier's kernel table from a traits type. */
template <class V>
BatchKernels
makeBatchKernels(const char *name)
{
    BatchKernels k;
    k.width = V::kWidth;
    k.name = name;
    k.forwardW = &forwardWImpl<V>;
    k.inverseW = &inverseWImpl<V>;
    k.laneTileCmux = &laneTileCmuxImpl<V>;
    k.mulAdd = &mulAddImpl<V>;
    k.add = &addImpl<V>;
    k.rotateDiffDecompose = &rotateDiffDecomposeImpl<V>;
    k.subScaledRow = &subScaledRowImpl<V>;
    return k;
}

} // namespace morphling::tfhe::detail

#endif // MORPHLING_TFHE_FFT_KERNELS_IMPL_H

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
 *
 * Data layout: W polynomials are processed per call with coefficients
 * lane-interleaved — element j of lane (polynomial) w lives at
 * scratch[j*W + w]. A butterfly at position j is then one W-wide vector
 * op with the twiddle splat across lanes, so every stage runs at full
 * width regardless of its span.
 *
 * Sweep order. A plane is N/2 * W complex doubles (64 KiB at set I on
 * AVX-512, more than L1). A forward sweeps it three times: the
 * fold+twist, fused with the transpose that loads the inputs; stage 0
 * over the whole plane; then, since every later stage's blocks lie
 * inside one quarter of the plane, all later stages depth-first on each
 * quarter in turn, which stays in L1 between stages. The radix-2 tail
 * (log2(N/2) odd) runs inside the last radix-4 stage, on each 8-position
 * block right after its radix-4 butterflies. The inverse mirrors this,
 * and its untwist+scale+round+add is a third sweep, fused with the
 * transpose that stores the outputs (forwardW and inverseW add one more
 * each, the transpose of the spectra out or in). Neither boundary sweep
 * is free: at set I on AVX-512 the fold+twist costs about two radix-4
 * stages and the rounding store about two thirds of all the inverse
 * stages (docs/perf.md). Only the order of independent butterflies
 * depends on this blocking, never their inputs or expressions.
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

#include "tfhe/fft_kernels.h"

namespace morphling::tfhe::detail {

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
        for (unsigned w = 0; w < W; ++w) {
            // x_j = (a_j + i * a_{j+N/2}) * e^{i*pi*j/N}, the same
            // expression order on every tier.
            const Vec lo = V::cvtInt32(in[w] + j0);
            const Vec hi = V::cvtInt32(in[w] + j0 + half);
            row_re[w] = V::sub(V::mul(lo, tr), V::mul(hi, ti));
            row_im[w] = V::add(V::mul(lo, ti), V::mul(hi, tr));
        }
        V::transpose(row_re);
        V::transpose(row_im);
        for (unsigned e = 0; e < W; ++e) {
            V::store(s_re + (j0 + e) * W, row_re[e]);
            V::store(s_im + (j0 + e) * W, row_im[e]);
        }
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

/** Forward DIF radix-4 stage s on positions [lo, hi), whole blocks of
 *  its span. When the transform has a radix-2 tail, the last stage runs
 *  it on each block right after the block's radix-4 butterflies. */
template <class V>
void
forwardStage(const NegacyclicView &t, unsigned s, unsigned lo,
             unsigned hi, double *re, double *im)
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
            double *p0r = re + (base + j) * W;
            double *p1r = p0r + q * W;
            double *p2r = p1r + q * W;
            double *p3r = p2r + q * W;
            double *p0i = im + (base + j) * W;
            double *p1i = p0i + q * W;
            double *p2i = p1i + q * W;
            double *p3i = p2i + q * W;
            const Vec r0 = V::load(p0r), i0 = V::load(p0i);
            const Vec r1 = V::load(p1r), i1 = V::load(p1i);
            const Vec r2 = V::load(p2r), i2 = V::load(p2i);
            const Vec r3 = V::load(p3r), i3 = V::load(p3i);
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
 *  its span: the exact transpose of forwardStage, so a last stage
 *  with a radix-2 tail runs it on each block before the block's
 *  radix-4 butterflies. */
template <class V>
void
inverseStage(const NegacyclicView &t, unsigned s, unsigned lo,
             unsigned hi, double *re, double *im)
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
            double *p0r = re + (base + j) * W;
            double *p1r = p0r + q * W;
            double *p2r = p1r + q * W;
            double *p3r = p2r + q * W;
            double *p0i = im + (base + j) * W;
            double *p1i = p0i + q * W;
            double *p2i = p1i + q * W;
            double *p3i = p2i + q * W;
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
            V::store(p0r, V::add(t0r, t2r));
            V::store(p0i, V::add(t0i, t2i));
            V::store(p1r, V::sub(t1r, t3i));
            V::store(p1i, V::add(t1i, t3r));
            V::store(p2r, V::sub(t0r, t2r));
            V::store(p2i, V::sub(t0i, t2i));
            V::store(p3r, V::add(t1r, t3i));
            V::store(p3i, V::sub(t1i, t3r));
        }
    }
}

/** All forward stages on the interleaved layout: stage 0 sweeps the
 *  whole plane, then every later stage (its blocks all lie inside one
 *  quarter of the plane) runs depth-first on each quarter, which stays
 *  in L1 from one stage to the next. */
template <class V>
void
forwardStages(const NegacyclicView &t, double *re, double *im)
{
    if (t.numStages == 0) // N = 4: the radix-2 tail alone
        return radix2Pairs<V>(0, t.half, re, im);
    forwardStage<V>(t, 0, 0, t.half, re, im);
    const unsigned quarter = t.half / 4;
    for (unsigned lo = 0; lo < t.half; lo += quarter)
        for (unsigned s = 1; s < t.numStages; ++s)
            forwardStage<V>(t, s, lo, lo + quarter, re, im);
}

/** All inverse stages, the forward order reversed: each quarter from
 *  its smallest span (radix-2 tail first) up to stage 1, then stage 0
 *  over the whole plane. */
template <class V>
void
inverseStages(const NegacyclicView &t, double *re, double *im)
{
    if (t.numStages == 0)
        return radix2Pairs<V>(0, t.half, re, im);
    const unsigned quarter = t.half / 4;
    for (unsigned lo = 0; lo < t.half; lo += quarter)
        for (unsigned s = t.numStages; s-- > 1;)
            inverseStage<V>(t, s, lo, lo + quarter, re, im);
    inverseStage<V>(t, 0, 0, t.half, re, im);
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
        for (unsigned e = 0; e < W; ++e) {
            row_re[e] = V::load(s_re + (j0 + e) * W);
            row_im[e] = V::load(s_im + (j0 + e) * W);
        }
        V::transpose(row_re);
        V::transpose(row_im);
        for (unsigned w = 0; w < W; ++w) {
            V::store(out_re[w] + j0, row_re[w]);
            V::store(out_im[w] + j0, row_im[w]);
        }
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
        for (unsigned w = 0; w < W; ++w) {
            row_re[w] = V::load(in_re[w] + j0);
            row_im[w] = V::load(in_im[w] + j0);
        }
        V::transpose(row_re);
        V::transpose(row_im);
        for (unsigned e = 0; e < W; ++e) {
            V::store(s_re + (j0 + e) * W, row_re[e]);
            V::store(s_im + (j0 + e) * W, row_im[e]);
        }
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
        for (unsigned e = 0; e < W; ++e) {
            row_re[e] = V::load(s_re + (j0 + e) * W);
            row_im[e] = V::load(s_im + (j0 + e) * W);
        }
        V::transpose(row_re);
        V::transpose(row_im);
        const Vec tr = V::load(t.twistRe + j0);
        const Vec ti = V::load(t.twistIm + j0);
        for (unsigned w = 0; w < W; ++w) {
            const Vec zr = V::mul(row_re[w], sc);
            const Vec zi = V::mul(row_im[w], sc);
            V::addRounded(out[w] + j0,
                          V::add(V::mul(zr, tr), V::mul(zi, ti)));
            V::addRounded(out[w] + j0 + half,
                          V::sub(V::mul(zi, tr), V::mul(zr, ti)));
        }
    }
}

template <class V>
void
forwardWImpl(const NegacyclicView &t, const std::int32_t *const *in,
             double *const *out_re, double *const *out_im,
             double *s_re, double *s_im)
{
    foldTwistTransposeIn<V>(t, in, s_re, s_im);
    forwardStages<V>(t, s_re, s_im);
    transposeOut<V>(t, s_re, s_im, out_re, out_im);
}

template <class V>
void
inverseWImpl(const NegacyclicView &t, const double *const *in_re,
             const double *const *in_im, Torus32 *const *out,
             double *s_re, double *s_im)
{
    spectraTransposeIn<V>(t, in_re, in_im, s_re, s_im);
    inverseStages<V>(t, s_re, s_im);
    untwistRoundAddOut<V>(t, s_re, s_im, out);
}

/**
 * The slot-lane tile external product (BatchKernels::slotTileProduct).
 * Lane w carries ciphertext w of the tile through all three steps, so
 * no spectrum is transposed out of the interleaved layout or back in.
 */
template <class V>
void
slotTileProductImpl(const NegacyclicView &t,
                    const std::int32_t *const *digits, unsigned rows,
                    const double *const *key_re,
                    const double *const *key_im, unsigned cols,
                    Torus32 *const *out, double *digit_plane,
                    double *acc_plane)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    const std::size_t plane = std::size_t{t.half} * W;
    double *const d_re = digit_plane;
    double *const d_im = digit_plane + rows * plane;
    double *const a_re = acc_plane;
    double *const a_im = acc_plane + cols * plane;

    for (unsigned r = 0; r < rows; ++r) {
        const std::int32_t *in[W];
        for (unsigned w = 0; w < W; ++w)
            in[w] = digits[w * rows + r];
        foldTwistTransposeIn<V>(t, in, d_re + r * plane, d_im + r * plane);
        forwardStages<V>(t, d_re + r * plane, d_im + r * plane);
    }

    // Four positions per block give eight independent accumulator
    // chains; each digit vector is reloaded from L1 for every column.
    constexpr unsigned kBlock = 4;
    for (unsigned j0 = 0; j0 < t.half; j0 += kBlock) {
        for (unsigned c = 0; c < cols; ++c) {
            Vec pr[kBlock], pi[kBlock];
            for (unsigned b = 0; b < kBlock; ++b)
                pr[b] = pi[b] = V::splat(0.0);
            for (unsigned r = 0; r < rows; ++r) {
                const double *br = key_re[r * cols + c] + j0;
                const double *bi = key_im[r * cols + c] + j0;
                const double *ar = d_re + r * plane + j0 * W;
                const double *ai = d_im + r * plane + j0 * W;
                for (unsigned b = 0; b < kBlock; ++b) {
                    const Vec va_r = V::load(ar + b * W);
                    const Vec va_i = V::load(ai + b * W);
                    const Vec vb_r = V::splat(br[b]);
                    const Vec vb_i = V::splat(bi[b]);
                    pr[b] = V::add(pr[b], V::sub(V::mul(va_r, vb_r),
                                                 V::mul(va_i, vb_i)));
                    pi[b] = V::add(pi[b], V::add(V::mul(va_r, vb_i),
                                                 V::mul(va_i, vb_r)));
                }
            }
            for (unsigned b = 0; b < kBlock; ++b) {
                V::store(a_re + c * plane + (j0 + b) * W, pr[b]);
                V::store(a_im + c * plane + (j0 + b) * W, pi[b]);
            }
        }
    }

    for (unsigned c = 0; c < cols; ++c) {
        Torus32 *dst[W];
        for (unsigned w = 0; w < W; ++w)
            dst[w] = out[w * cols + c];
        inverseStages<V>(t, a_re + c * plane, a_im + c * plane);
        untwistRoundAddOut<V>(t, a_re + c * plane, a_im + c * plane, dst);
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
    k.slotTileProduct = &slotTileProductImpl<V>;
    k.mulAdd = &mulAddImpl<V>;
    k.add = &addImpl<V>;
    k.rotateDiffDecompose = &rotateDiffDecomposeImpl<V>;
    k.subScaledRow = &subScaledRowImpl<V>;
    return k;
}

} // namespace morphling::tfhe::detail

#endif // MORPHLING_TFHE_FFT_KERNELS_IMPL_H

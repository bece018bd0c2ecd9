#include "fft.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/bits.h"
#include "common/logging.h"
#include "tfhe/fft_dispatch.h"

namespace morphling::tfhe {

ComplexFft::ComplexFft(unsigned size) : size_(size)
{
    panic_if(!isPowerOfTwo(size) || size < 2, "bad FFT size ", size);

    twiddleRe_.resize(size_ / 2);
    twiddleIm_.resize(size_ / 2);
    for (unsigned j = 0; j < size_ / 2; ++j) {
        const double angle = -2.0 * M_PI * static_cast<double>(j) /
                             static_cast<double>(size_);
        twiddleRe_[j] = std::cos(angle);
        twiddleIm_[j] = std::sin(angle);
    }

    bitrev_.resize(size_);
    const unsigned bits = log2Floor(size_);
    for (unsigned i = 0; i < size_; ++i) {
        unsigned r = 0;
        for (unsigned b = 0; b < bits; ++b) {
            if (i & (1u << b))
                r |= 1u << (bits - 1 - b);
        }
        bitrev_[i] = r;
    }
}

void
ComplexFft::run(double *re, double *im, int sign) const
{
    // Bit-reversal permutation.
    for (unsigned i = 0; i < size_; ++i) {
        const unsigned j = bitrev_[i];
        if (i < j) {
            std::swap(re[i], re[j]);
            std::swap(im[i], im[j]);
        }
    }
    // Iterative radix-2 decimation-in-time butterflies.
    for (unsigned len = 2; len <= size_; len <<= 1) {
        const unsigned stride = size_ / len;
        const unsigned half_len = len / 2;
        for (unsigned base = 0; base < size_; base += len) {
            for (unsigned t = 0; t < half_len; ++t) {
                const double wr = twiddleRe_[t * stride];
                const double wi = sign < 0 ? twiddleIm_[t * stride]
                                           : -twiddleIm_[t * stride];
                const unsigned lo = base + t;
                const unsigned hi = lo + half_len;
                const double xr = re[hi] * wr - im[hi] * wi;
                const double xi = re[hi] * wi + im[hi] * wr;
                re[hi] = re[lo] - xr;
                im[hi] = im[lo] - xi;
                re[lo] += xr;
                im[lo] += xi;
            }
        }
    }
}

void
ComplexFft::forward(double *re, double *im) const
{
    run(re, im, -1);
}

void
ComplexFft::inverse(double *re, double *im) const
{
    run(re, im, +1);
}

FourierPolynomial::FourierPolynomial(unsigned ring_degree)
    : ringDegree_(ring_degree), re_(ring_degree / 2, 0.0),
      im_(ring_degree / 2, 0.0)
{
    panic_if(!isPowerOfTwo(ring_degree) || ring_degree < 4,
             "bad ring degree ", ring_degree);
}

void
FourierPolynomial::clear()
{
    std::fill(re_.begin(), re_.end(), 0.0);
    std::fill(im_.begin(), im_.end(), 0.0);
}

void
FourierPolynomial::addAssign(const FourierPolynomial &a)
{
    panic_if(size() != a.size(), "size mismatch in Fourier addAssign");
    detail::activeBatchKernels().add(size(), a.re_.data(), a.im_.data(),
                                     re_.data(), im_.data());
}

void
FourierPolynomial::mulAddAssign(const FourierPolynomial &a,
                                const FourierPolynomial &b)
{
    panic_if(size() != a.size() || size() != b.size(),
             "size mismatch in Fourier mulAddAssign");
    detail::activeBatchKernels().mulAdd(size(), a.re_.data(), a.im_.data(),
                                        b.re_.data(), b.im_.data(),
                                        re_.data(), im_.data());
}

NegacyclicFft::NegacyclicFft(unsigned ring_degree)
{
    panic_if(!isPowerOfTwo(ring_degree) || ring_degree < 4,
             "bad ring degree ", ring_degree);
    const unsigned half = ring_degree / 2;

    // Radix-4 stages of the N/2-point transform, widest span first.
    // Each stage's twiddles are six blocks of span/4 doubles indexed by
    // butterfly position: re/im of w, w^2 and w^3.
    unsigned len = half;
    for (; len >= 4; len /= 4) {
        const unsigned q = len / 4;
        const std::size_t base = twiddles_.size();
        twiddles_.resize(base + 6 * std::size_t{q});
        double *tw = twiddles_.data() + base;
        for (unsigned j = 0; j < q; ++j) {
            const double a = -2.0 * M_PI * static_cast<double>(j) /
                             static_cast<double>(len);
            tw[0 * q + j] = std::cos(a);
            tw[1 * q + j] = std::sin(a);
            tw[2 * q + j] = std::cos(2.0 * a);
            tw[3 * q + j] = std::sin(2.0 * a);
            tw[4 * q + j] = std::cos(3.0 * a);
            tw[5 * q + j] = std::sin(3.0 * a);
        }
        stageLen_.push_back(len);
    }
    const double *tw = twiddles_.data();
    for (const unsigned span : stageLen_) {
        stageTw_.push_back(tw);
        tw += 6 * std::size_t{span / 4};
    }

    twistRe_.resize(half);
    twistIm_.resize(half);
    for (unsigned j = 0; j < half; ++j) {
        const double angle = M_PI * static_cast<double>(j) /
                             static_cast<double>(ring_degree);
        twistRe_[j] = std::cos(angle);
        twistIm_[j] = std::sin(angle);
    }

    view_.n = ring_degree;
    view_.half = half;
    view_.numStages = static_cast<unsigned>(stageLen_.size());
    view_.radix2Tail = len == 2; // log2(N/2) odd
    view_.stageLen = stageLen_.data();
    view_.stageTw = stageTw_.data();
    view_.twistRe = twistRe_.data();
    view_.twistIm = twistIm_.data();

    laneRe_.resize(std::size_t{detail::kMaxFftLanes} * half);
    laneIm_.resize(laneRe_.size());
    padRe_.resize(half);
    padIm_.resize(half);
    padTorus_.resize(ring_degree);
}

const detail::BatchKernels &
NegacyclicFft::pickKernel(const detail::KernelLadder &ladder,
                          unsigned remaining) const
{
    // Rungs run widest first and end in the scalar one (W = 1). Take
    // the widest vector rung whose lanes all get real work; a group of
    // >= 2 too short for every vector rung runs through the narrowest
    // one with its leftover lanes padded, which beats one W = 1 call
    // per polynomial.
    const detail::BatchKernels *pad = nullptr;
    for (unsigned r = 0; r + 1 < ladder.count; ++r) {
        const detail::BatchKernels *k = ladder.rung[r];
        if (view_.half % k->width != 0)
            continue;
        if (k->width <= remaining)
            return *k;
        pad = k;
    }
    return remaining >= 2 && pad ? *pad : *ladder.rung[ladder.count - 1];
}

void
NegacyclicFft::forward(const IntPolynomial &poly,
                       FourierPolynomial &out) const
{
    panic_if(poly.degree() != view_.n, "polynomial degree mismatch");
    const std::int32_t *coeffs = poly.data();
    FourierPolynomial *spectrum = &out;
    forward(&coeffs, &spectrum, 1);
}

void
NegacyclicFft::forward(const TorusPolynomial &poly,
                       FourierPolynomial &out) const
{
    panic_if(poly.degree() != view_.n, "polynomial degree mismatch");
    // Torus coefficients are read as signed 32-bit integers (the
    // standard TFHE convention); int32/uint32 aliasing is well-defined.
    const auto *coeffs =
        reinterpret_cast<const std::int32_t *>(poly.data());
    FourierPolynomial *spectrum = &out;
    forward(&coeffs, &spectrum, 1);
}

void
NegacyclicFft::inverse(const FourierPolynomial &in,
                       TorusPolynomial &out) const
{
    const FourierPolynomial *spectrum = &in;
    TorusPolynomial *poly = &out;
    out.clear();
    inverseAdd(&spectrum, &poly, 1);
}

void
NegacyclicFft::forward(const std::int32_t *const *in,
                       FourierPolynomial *const *out, unsigned count) const
{
    const detail::KernelLadder &ladder = detail::activeKernelLadder();
    unsigned i = 0;
    while (i < count) {
        const detail::BatchKernels &k = pickKernel(ladder, count - i);
        const unsigned real = std::min(k.width, count - i);
        const std::int32_t *in_w[detail::kMaxFftLanes];
        double *re_w[detail::kMaxFftLanes];
        double *im_w[detail::kMaxFftLanes];
        for (unsigned w = 0; w < real; ++w) {
            FourierPolynomial &o = *out[i + w];
            panic_if(o.ringDegree() != view_.n,
                     "FourierPolynomial degree mismatch");
            in_w[w] = in[i + w];
            re_w[w] = o.reData();
            im_w[w] = o.imData();
        }
        // Idle lanes of a padded short group re-transform the first
        // polynomial into the shared throwaway spectrum.
        for (unsigned w = real; w < k.width; ++w) {
            in_w[w] = in[i];
            re_w[w] = padRe_.data();
            im_w[w] = padIm_.data();
        }
        k.forwardW(view_, in_w, re_w, im_w, laneRe_.data(),
                   laneIm_.data());
        i += real;
    }
}

void
NegacyclicFft::inverseAdd(const FourierPolynomial *const *in,
                          TorusPolynomial *const *out, unsigned count) const
{
    const detail::KernelLadder &ladder = detail::activeKernelLadder();
    unsigned i = 0;
    while (i < count) {
        const detail::BatchKernels &k = pickKernel(ladder, count - i);
        const unsigned real = std::min(k.width, count - i);
        const double *re_w[detail::kMaxFftLanes];
        const double *im_w[detail::kMaxFftLanes];
        Torus32 *out_w[detail::kMaxFftLanes];
        for (unsigned w = 0; w < real; ++w) {
            const FourierPolynomial &f = *in[i + w];
            panic_if(f.ringDegree() != view_.n,
                     "FourierPolynomial degree mismatch");
            panic_if(out[i + w]->degree() != view_.n,
                     "polynomial degree mismatch");
            re_w[w] = f.reData();
            im_w[w] = f.imData();
            out_w[w] = out[i + w]->data();
        }
        // Idle lanes re-read the first spectrum and add into the shared
        // throwaway torus buffer.
        for (unsigned w = real; w < k.width; ++w) {
            re_w[w] = in[i]->reData();
            im_w[w] = in[i]->imData();
            out_w[w] = padTorus_.data();
        }
        k.inverseW(view_, re_w, im_w, out_w, laneRe_.data(),
                   laneIm_.data());
        i += real;
    }
}

const NegacyclicFft &
NegacyclicFft::forDegree(unsigned ring_degree)
{
    thread_local std::map<unsigned, std::unique_ptr<NegacyclicFft>> cache;
    auto &slot = cache[ring_degree];
    if (!slot)
        slot = std::make_unique<NegacyclicFft>(ring_degree);
    return *slot;
}

} // namespace morphling::tfhe

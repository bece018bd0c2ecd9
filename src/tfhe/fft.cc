#include "fft.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/bits.h"
#include "common/logging.h"
#include "tfhe/fft_dispatch.h"

namespace morphling::tfhe {

namespace {

// Rounding onto the discretized torus is the definition every SIMD
// kernel tier reproduces (fft_kernels.h): llrint + the exact int64 ->
// uint32 wrap, with the slow remainder() reduction only beyond 2^62
// (far outside any parameter set here).
using detail::roundToTorus;

} // namespace

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

Radix4Fft::Radix4Fft(unsigned size) : size_(size)
{
    panic_if(!isPowerOfTwo(size) || size < 2, "bad FFT size ", size);

    unsigned len = size_;
    while (len >= 4) {
        const unsigned q = len / 4;
        std::vector<double> tw(6 * static_cast<std::size_t>(q));
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
        stageTw_.push_back(std::move(tw));
        len /= 4;
    }
    radix2Tail_ = (len == 2);
}

void
Radix4Fft::radix4ForwardStage(unsigned stage, double *re, double *im) const
{
    const unsigned len = stageLen_[stage];
    const unsigned q = len / 4;
    const double *tw = stageTw_[stage].data();
    const double *__restrict w1r = tw + 0 * q;
    const double *__restrict w1i = tw + 1 * q;
    const double *__restrict w2r = tw + 2 * q;
    const double *__restrict w2i = tw + 3 * q;
    const double *__restrict w3r = tw + 4 * q;
    const double *__restrict w3i = tw + 5 * q;

    for (unsigned base = 0; base < size_; base += len) {
        double *__restrict r0 = re + base;
        double *__restrict r1 = r0 + q;
        double *__restrict r2 = r1 + q;
        double *__restrict r3 = r2 + q;
        double *__restrict i0 = im + base;
        double *__restrict i1 = i0 + q;
        double *__restrict i2 = i1 + q;
        double *__restrict i3 = i2 + q;
        for (unsigned j = 0; j < q; ++j) {
            const double t0r = r0[j] + r2[j], t0i = i0[j] + i2[j];
            const double t1r = r0[j] - r2[j], t1i = i0[j] - i2[j];
            const double t2r = r1[j] + r3[j], t2i = i1[j] + i3[j];
            const double t3r = r1[j] - r3[j], t3i = i1[j] - i3[j];
            r0[j] = t0r + t2r;
            i0[j] = t0i + t2i;
            // y1 = (t1 - i*t3) * w, y2 = (t0 - t2) * w^2,
            // y3 = (t1 + i*t3) * w^3 (forward kernel e^{-i...}).
            const double y1r = t1r + t3i, y1i = t1i - t3r;
            r1[j] = y1r * w1r[j] - y1i * w1i[j];
            i1[j] = y1r * w1i[j] + y1i * w1r[j];
            const double y2r = t0r - t2r, y2i = t0i - t2i;
            r2[j] = y2r * w2r[j] - y2i * w2i[j];
            i2[j] = y2r * w2i[j] + y2i * w2r[j];
            const double y3r = t1r - t3i, y3i = t1i + t3r;
            r3[j] = y3r * w3r[j] - y3i * w3i[j];
            i3[j] = y3r * w3i[j] + y3i * w3r[j];
        }
    }
}

void
Radix4Fft::radix4InverseStage(unsigned stage, double *re, double *im) const
{
    const unsigned len = stageLen_[stage];
    const unsigned q = len / 4;
    const double *tw = stageTw_[stage].data();
    const double *__restrict w1r = tw + 0 * q;
    const double *__restrict w1i = tw + 1 * q;
    const double *__restrict w2r = tw + 2 * q;
    const double *__restrict w2i = tw + 3 * q;
    const double *__restrict w3r = tw + 4 * q;
    const double *__restrict w3i = tw + 5 * q;

    for (unsigned base = 0; base < size_; base += len) {
        double *__restrict r0 = re + base;
        double *__restrict r1 = r0 + q;
        double *__restrict r2 = r1 + q;
        double *__restrict r3 = r2 + q;
        double *__restrict i0 = im + base;
        double *__restrict i1 = i0 + q;
        double *__restrict i2 = i1 + q;
        double *__restrict i3 = i2 + q;
        for (unsigned j = 0; j < q; ++j) {
            // u_s = y_s * conj(w^s); then the conjugate butterfly
            // (4 * DFT4^-1), the exact transpose of the forward stage.
            const double u1r = r1[j] * w1r[j] + i1[j] * w1i[j];
            const double u1i = i1[j] * w1r[j] - r1[j] * w1i[j];
            const double u2r = r2[j] * w2r[j] + i2[j] * w2i[j];
            const double u2i = i2[j] * w2r[j] - r2[j] * w2i[j];
            const double u3r = r3[j] * w3r[j] + i3[j] * w3i[j];
            const double u3i = i3[j] * w3r[j] - r3[j] * w3i[j];
            const double t0r = r0[j] + u2r, t0i = i0[j] + u2i;
            const double t1r = r0[j] - u2r, t1i = i0[j] - u2i;
            const double t2r = u1r + u3r, t2i = u1i + u3i;
            const double t3r = u1r - u3r, t3i = u1i - u3i;
            r0[j] = t0r + t2r;
            i0[j] = t0i + t2i;
            r1[j] = t1r - t3i;
            i1[j] = t1i + t3r;
            r2[j] = t0r - t2r;
            i2[j] = t0i - t2i;
            r3[j] = t1r + t3i;
            i3[j] = t1i - t3r;
        }
    }
}

void
Radix4Fft::radix2Stage(double *re, double *im) const
{
    // Twiddle-free length-2 butterflies; self-inverse up to the scale
    // the unscaled inverse contract already absorbs.
    for (unsigned p = 0; p < size_; p += 2) {
        const double ar = re[p], ai = im[p];
        const double br = re[p + 1], bi = im[p + 1];
        re[p] = ar + br;
        im[p] = ai + bi;
        re[p + 1] = ar - br;
        im[p + 1] = ai - bi;
    }
}

void
Radix4Fft::forwardStagesFrom(unsigned first_stage, double *re,
                             double *im) const
{
    for (unsigned s = first_stage; s < numStages(); ++s)
        radix4ForwardStage(s, re, im);
    if (radix2Tail_)
        radix2Stage(re, im);
}

void
Radix4Fft::forwardPermuted(double *re, double *im) const
{
    forwardStagesFrom(0, re, im);
}

void
Radix4Fft::inverseStagesDownTo(unsigned stop_stage, double *re,
                               double *im) const
{
    if (radix2Tail_)
        radix2Stage(re, im);
    for (unsigned s = numStages(); s-- > stop_stage;)
        radix4InverseStage(s, re, im);
}

void
Radix4Fft::inversePermuted(double *re, double *im) const
{
    inverseStagesDownTo(0, re, im);
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
    : n_(ring_degree), half_(ring_degree / 2), fft_(ring_degree / 2)
{
    panic_if(!isPowerOfTwo(n_) || n_ < 4, "bad ring degree ", n_);

    twistRe_.resize(half_);
    twistIm_.resize(half_);
    for (unsigned j = 0; j < half_; ++j) {
        const double angle = M_PI * static_cast<double>(j) /
                             static_cast<double>(n_);
        twistRe_[j] = std::cos(angle);
        twistIm_[j] = std::sin(angle);
    }

    scratchRe_.resize(half_);
    scratchIm_.resize(half_);
}

void
NegacyclicFft::forwardFromInt(const std::int32_t *input,
                              FourierPolynomial &out) const
{
    panic_if(out.ringDegree() != n_, "FourierPolynomial degree mismatch");
    double *__restrict re = out.reData();
    double *__restrict im = out.imData();
    const double *__restrict tr = twistRe_.data();
    const double *__restrict ti = twistIm_.data();

    if (half_ >= 4) {
        // Fold + twist fused with the first DIF butterfly stage: load
        // x_p = (a_p + i a_{p+N/2}) * e^{i pi p / N} for the four
        // quarter positions and butterfly in the same pass.
        const unsigned q = half_ / 4;
        const double *tw = fft_.stageTwiddles(0);
        const double *__restrict w1r = tw + 0 * q;
        const double *__restrict w1i = tw + 1 * q;
        const double *__restrict w2r = tw + 2 * q;
        const double *__restrict w2i = tw + 3 * q;
        const double *__restrict w3r = tw + 4 * q;
        const double *__restrict w3i = tw + 5 * q;
        for (unsigned j = 0; j < q; ++j) {
            const unsigned p1 = j + q, p2 = j + 2 * q, p3 = j + 3 * q;
            const double a_lo = static_cast<double>(input[j]);
            const double a_hi = static_cast<double>(input[j + half_]);
            const double ar = a_lo * tr[j] - a_hi * ti[j];
            const double ai = a_lo * ti[j] + a_hi * tr[j];
            const double b_lo = static_cast<double>(input[p1]);
            const double b_hi = static_cast<double>(input[p1 + half_]);
            const double br = b_lo * tr[p1] - b_hi * ti[p1];
            const double bi = b_lo * ti[p1] + b_hi * tr[p1];
            const double c_lo = static_cast<double>(input[p2]);
            const double c_hi = static_cast<double>(input[p2 + half_]);
            const double cr = c_lo * tr[p2] - c_hi * ti[p2];
            const double ci = c_lo * ti[p2] + c_hi * tr[p2];
            const double d_lo = static_cast<double>(input[p3]);
            const double d_hi = static_cast<double>(input[p3 + half_]);
            const double dr = d_lo * tr[p3] - d_hi * ti[p3];
            const double di = d_lo * ti[p3] + d_hi * tr[p3];

            const double t0r = ar + cr, t0i = ai + ci;
            const double t1r = ar - cr, t1i = ai - ci;
            const double t2r = br + dr, t2i = bi + di;
            const double t3r = br - dr, t3i = bi - di;
            re[j] = t0r + t2r;
            im[j] = t0i + t2i;
            const double y1r = t1r + t3i, y1i = t1i - t3r;
            re[p1] = y1r * w1r[j] - y1i * w1i[j];
            im[p1] = y1r * w1i[j] + y1i * w1r[j];
            const double y2r = t0r - t2r, y2i = t0i - t2i;
            re[p2] = y2r * w2r[j] - y2i * w2i[j];
            im[p2] = y2r * w2i[j] + y2i * w2r[j];
            const double y3r = t1r - t3i, y3i = t1i + t3r;
            re[p3] = y3r * w3r[j] - y3i * w3i[j];
            im[p3] = y3r * w3i[j] + y3i * w3r[j];
        }
        fft_.forwardStagesFrom(1, re, im);
    } else {
        for (unsigned j = 0; j < half_; ++j) {
            const double lo = static_cast<double>(input[j]);
            const double hi = static_cast<double>(input[j + half_]);
            re[j] = lo * tr[j] - hi * ti[j];
            im[j] = lo * ti[j] + hi * tr[j];
        }
        fft_.forwardPermuted(re, im);
    }
}

void
NegacyclicFft::forward(const IntPolynomial &poly,
                       FourierPolynomial &out) const
{
    panic_if(poly.degree() != n_, "polynomial degree mismatch");
    forwardFromInt(poly.data(), out);
}

void
NegacyclicFft::forward(const TorusPolynomial &poly,
                       FourierPolynomial &out) const
{
    panic_if(poly.degree() != n_, "polynomial degree mismatch");
    // Torus coefficients are read as signed 32-bit integers (the
    // standard TFHE convention); int32/uint32 aliasing is well-defined.
    forwardFromInt(reinterpret_cast<const std::int32_t *>(poly.data()),
                   out);
}

void
NegacyclicFft::inverseCore(double *re, double *im,
                           TorusPolynomial &out) const
{
    panic_if(out.degree() != n_, "polynomial degree mismatch");
    const double scale = 1.0 / static_cast<double>(half_);
    const double *__restrict tr = twistRe_.data();
    const double *__restrict ti = twistIm_.data();
    Torus32 *__restrict o = out.data();

    // Untwist and split back into low/high coefficient halves; the
    // reduction mod 2^32 happens in roundToTorus().
    const auto store = [&](unsigned p, double xr, double xi) {
        const double zr = xr * scale;
        const double zi = xi * scale;
        o[p] += roundToTorus(zr * tr[p] + zi * ti[p]);
        o[p + half_] += roundToTorus(zi * tr[p] - zr * ti[p]);
    };

    if (half_ >= 4) {
        fft_.inverseStagesDownTo(1, re, im);
        // Last inverse stage fused with untwist + scale + round: its
        // outputs land in natural order, each written exactly once.
        const unsigned q = half_ / 4;
        const double *tw = fft_.stageTwiddles(0);
        const double *__restrict w1r = tw + 0 * q;
        const double *__restrict w1i = tw + 1 * q;
        const double *__restrict w2r = tw + 2 * q;
        const double *__restrict w2i = tw + 3 * q;
        const double *__restrict w3r = tw + 4 * q;
        const double *__restrict w3i = tw + 5 * q;
        for (unsigned j = 0; j < q; ++j) {
            const unsigned p1 = j + q, p2 = j + 2 * q, p3 = j + 3 * q;
            const double u1r = re[p1] * w1r[j] + im[p1] * w1i[j];
            const double u1i = im[p1] * w1r[j] - re[p1] * w1i[j];
            const double u2r = re[p2] * w2r[j] + im[p2] * w2i[j];
            const double u2i = im[p2] * w2r[j] - re[p2] * w2i[j];
            const double u3r = re[p3] * w3r[j] + im[p3] * w3i[j];
            const double u3i = im[p3] * w3r[j] - re[p3] * w3i[j];
            const double t0r = re[j] + u2r, t0i = im[j] + u2i;
            const double t1r = re[j] - u2r, t1i = im[j] - u2i;
            const double t2r = u1r + u3r, t2i = u1i + u3i;
            const double t3r = u1r - u3r, t3i = u1i - u3i;
            store(j, t0r + t2r, t0i + t2i);
            store(p1, t1r - t3i, t1i + t3r);
            store(p2, t0r - t2r, t0i - t2i);
            store(p3, t1r + t3i, t1i - t3r);
        }
    } else {
        fft_.inversePermuted(re, im);
        for (unsigned j = 0; j < half_; ++j)
            store(j, re[j], im[j]);
    }
}

void
NegacyclicFft::inverse(const FourierPolynomial &in,
                       TorusPolynomial &out) const
{
    panic_if(in.ringDegree() != n_, "FourierPolynomial degree mismatch");
    auto &re = scratchRe_;
    auto &im = scratchIm_;
    std::copy(in.reData(), in.reData() + half_, re.data());
    std::copy(in.imData(), in.imData() + half_, im.data());
    out.clear();
    inverseCore(re.data(), im.data(), out);
}

void
NegacyclicFft::inverseInPlace(FourierPolynomial &in,
                              TorusPolynomial &out) const
{
    panic_if(in.ringDegree() != n_, "FourierPolynomial degree mismatch");
    inverseCore(in.reData(), in.imData(), out);
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

BatchFft::BatchFft(unsigned ring_degree) : fft_(ring_degree)
{
    const Radix4Fft &core = fft_.fft_;
    stageLen_.resize(core.numStages());
    stageTw_.resize(core.numStages());
    for (unsigned s = 0; s < core.numStages(); ++s) {
        stageLen_[s] = core.stageLen(s);
        stageTw_[s] = core.stageTwiddles(s);
    }

    view_.n = fft_.n_;
    view_.half = fft_.half_;
    view_.numStages = core.numStages();
    view_.radix2Tail = core.hasRadix2Tail();
    view_.stageLen = stageLen_.data();
    view_.stageTw = stageTw_.data();
    view_.twistRe = fft_.twistRe_.data();
    view_.twistIm = fft_.twistIm_.data();

    // Lane scratch for the widest tier, so a later dispatch override
    // to a wider kernel never needs a reallocation.
    laneRe_.resize(static_cast<std::size_t>(detail::kMaxFftLanes) *
                   fft_.half_);
    laneIm_.resize(laneRe_.size());
    padRe_.resize(fft_.half_);
    padIm_.resize(fft_.half_);
    padTorus_.resize(fft_.n_);
}

const detail::BatchKernels *
BatchFft::pickKernel(const detail::KernelLadder &ladder,
                     unsigned remaining) const
{
    // Rungs are widest-first; take the widest whose lanes all get real
    // work. Track the narrowest vector rung along the way: a short
    // group of >= 2 still beats per-polynomial scalar calls when run
    // through it with the leftover lanes padded.
    const detail::BatchKernels *pad = nullptr;
    for (unsigned r = 0; r < ladder.count; ++r) {
        const detail::BatchKernels *k = ladder.rung[r];
        if (k->width <= 1 || view_.half % k->width != 0)
            continue;
        if (k->width <= remaining)
            return k;
        pad = k;
    }
    return remaining >= 2 ? pad : nullptr;
}

void
BatchFft::forward(const std::int32_t *const *in,
                  FourierPolynomial *const *out, unsigned count) const
{
    const detail::KernelLadder &ladder = detail::activeKernelLadder();
    unsigned i = 0;
    while (i < count) {
        const detail::BatchKernels *k = pickKernel(ladder, count - i);
        if (!k) {
            // Scalar tier, too-small transform, or a lone trailing
            // polynomial: the single-polynomial engine (bit-identical
            // by construction).
            fft_.forwardFromInt(in[i], *out[i]);
            ++i;
            continue;
        }
        const unsigned real = std::min(k->width, count - i);
        const std::int32_t *in_w[detail::kMaxFftLanes];
        double *re_w[detail::kMaxFftLanes];
        double *im_w[detail::kMaxFftLanes];
        for (unsigned w = 0; w < real; ++w) {
            FourierPolynomial &o = *out[i + w];
            panic_if(o.ringDegree() != fft_.n_,
                     "FourierPolynomial degree mismatch");
            in_w[w] = in[i + w];
            re_w[w] = o.reData();
            im_w[w] = o.imData();
        }
        // Idle lanes of a padded short group re-transform the first
        // polynomial into the shared throwaway spectrum.
        for (unsigned w = real; w < k->width; ++w) {
            in_w[w] = in[i];
            re_w[w] = padRe_.data();
            im_w[w] = padIm_.data();
        }
        k->forwardW(view_, in_w, re_w, im_w, laneRe_.data(),
                    laneIm_.data());
        i += real;
    }
}

void
BatchFft::forward(const IntPolynomial *const *in,
                  FourierPolynomial *const *out, unsigned count) const
{
    const std::int32_t *raw[detail::kMaxFftLanes];
    unsigned i = 0;
    while (i < count) {
        const unsigned group =
            std::min(count - i, detail::kMaxFftLanes);
        for (unsigned w = 0; w < group; ++w) {
            panic_if(in[i + w]->degree() != fft_.n_,
                     "polynomial degree mismatch");
            raw[w] = in[i + w]->data();
        }
        forward(raw, out + i, group);
        i += group;
    }
}

void
BatchFft::inverseInPlace(FourierPolynomial *const *in,
                         TorusPolynomial *const *out, unsigned count) const
{
    const detail::KernelLadder &ladder = detail::activeKernelLadder();
    unsigned i = 0;
    while (i < count) {
        const detail::BatchKernels *k = pickKernel(ladder, count - i);
        if (!k) {
            fft_.inverseInPlace(*in[i], *out[i]);
            ++i;
            continue;
        }
        const unsigned real = std::min(k->width, count - i);
        const double *re_w[detail::kMaxFftLanes];
        const double *im_w[detail::kMaxFftLanes];
        Torus32 *out_w[detail::kMaxFftLanes];
        for (unsigned w = 0; w < real; ++w) {
            FourierPolynomial &f = *in[i + w];
            panic_if(f.ringDegree() != fft_.n_,
                     "FourierPolynomial degree mismatch");
            panic_if(out[i + w]->degree() != fft_.n_,
                     "polynomial degree mismatch");
            re_w[w] = f.reData();
            im_w[w] = f.imData();
            out_w[w] = out[i + w]->data();
        }
        // Idle lanes re-read the first spectrum (the vector kernel
        // copies inputs to scratch before writing any output, so the
        // aliasing is read-then-write safe) and add into the shared
        // throwaway torus buffer.
        for (unsigned w = real; w < k->width; ++w) {
            re_w[w] = in[i]->reData();
            im_w[w] = in[i]->imData();
            out_w[w] = padTorus_.data();
        }
        k->inverseW(view_, re_w, im_w, out_w, laneRe_.data(),
                    laneIm_.data());
        i += real;
    }
}

void
BatchFft::slotTileProduct(const std::int32_t *const *digits, unsigned rows,
                          const double *const *key_re,
                          const double *const *key_im, unsigned cols,
                          Torus32 *const *out, double *digit_plane,
                          double *acc_plane) const
{
    // Every tier needs N/2 to be a multiple of its width and of the
    // MAC's four-position block; N >= 16 gives both.
    panic_if(view_.half % detail::kMaxFftLanes != 0,
             "slot-lane tiles need N >= 16, got N=", view_.n);
    detail::activeBatchKernels().slotTileProduct(
        view_, digits, rows, key_re, key_im, cols, out, digit_plane,
        acc_plane);
}

const BatchFft &
BatchFft::forDegree(unsigned ring_degree)
{
    thread_local std::map<unsigned, std::unique_ptr<BatchFft>> cache;
    auto &slot = cache[ring_degree];
    if (!slot)
        slot = std::make_unique<BatchFft>(ring_degree);
    return *slot;
}

} // namespace morphling::tfhe

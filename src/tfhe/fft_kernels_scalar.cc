/**
 * @file
 * Scalar (W = 1) instantiation of the batched negacyclic FFT kernels:
 * the portable fallback tier and the reference semantics every vector
 * tier must reproduce bit for bit. Compiled with -ffp-contract=off on
 * every platform so the arithmetic matches the vector TUs even on ISAs
 * where the compiler would otherwise contract mul+add into FMA.
 */

#include "tfhe/fft_kernels.h"
#include "tfhe/fft_kernels_impl.h"

namespace morphling::tfhe::detail {
namespace {

struct ScalarTraits
{
    static constexpr unsigned kWidth = 1;
    using Vec = double;

    static Vec load(const double *p) { return *p; }
    static void store(double *p, Vec v) { *p = v; }
    static Vec splat(double x) { return x; }
    static Vec add(Vec a, Vec b) { return a + b; }
    static Vec sub(Vec a, Vec b) { return a - b; }
    static Vec mul(Vec a, Vec b) { return a * b; }
    static Vec cvtInt32(const std::int32_t *p)
    {
        return static_cast<double>(*p);
    }
    static void transpose(Vec *) {} // 1x1 tile
    static void addRounded(Torus32 *p, Vec v) { *p += roundToTorus(v); }

    typedef std::uint32_t UVec __attribute__((vector_size(8)));
    static UVec gather(const Torus32 *p, UVec idx)
    {
        return UVec{p[idx[0]], p[idx[1]]};
    }
};

} // namespace

const BatchKernels &
scalarBatchKernels()
{
    static const BatchKernels k = makeBatchKernels<ScalarTraits>("scalar");
    return k;
}

} // namespace morphling::tfhe::detail

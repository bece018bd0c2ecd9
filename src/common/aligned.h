/**
 * @file
 * Cache-line-aligned allocation for SIMD-facing buffers.
 *
 * The batched negacyclic FFT kernels (src/tfhe/fft_kernels*.cc) stream
 * structure-of-arrays double buffers with 256/512-bit vector loads.
 * Guaranteeing 64-byte alignment keeps every such buffer cache-line
 * aligned and lets the kernels assume vector accesses never straddle a
 * line; tests/test_workspace.cc asserts the guarantee on the real
 * FourierPolynomial / workspace storage.
 *
 * Allocation goes through the aligned global operator new so that the
 * allocation-counting hooks tests install (and any user replacement)
 * still observe every hot-path allocation.
 */

#ifndef MORPHLING_COMMON_ALIGNED_H
#define MORPHLING_COMMON_ALIGNED_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace morphling {

/** Alignment (bytes) of every SIMD-facing SoA buffer: one cache line,
 *  and the widest vector register (AVX-512) exactly. */
inline constexpr std::size_t kSimdAlignment = 64;

/**
 * Minimal std::allocator replacement returning storage aligned to
 * `Align` bytes. Stateless: all instances compare equal.
 */
template <typename T, std::size_t Align = kSimdAlignment>
struct AlignedAllocator
{
    static_assert(Align >= alignof(T), "alignment below natural");
    static_assert((Align & (Align - 1)) == 0, "alignment not a power of 2");

    using value_type = T;

    AlignedAllocator() noexcept = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{Align}));
    }

    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{Align});
    }

    friend bool operator==(const AlignedAllocator &,
                           const AlignedAllocator &) noexcept
    {
        return true;
    }
};

/** A std::vector whose data() is 64-byte aligned. */
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/** True iff p satisfies the SIMD buffer alignment contract. */
inline bool
isSimdAligned(const void *p)
{
    return (reinterpret_cast<std::uintptr_t>(p) % kSimdAlignment) == 0;
}

} // namespace morphling

#endif // MORPHLING_COMMON_ALIGNED_H

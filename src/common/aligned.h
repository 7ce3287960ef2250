/**
 * @file
 * 64-byte-aligned heap allocation.
 *
 * The SIMD engine (src/engine/simd/) loads the lane/tile arrays built
 * by DtcKernel::prepare() and the rounded copy of B that PreparedDense
 * owns with vector instructions.  A default-aligned std::vector<float> only
 * guarantees alignof(float); issuing *aligned* vector loads against it
 * would be UB, and even with unaligned loads a buffer that straddles
 * cache lines costs split accesses.  AlignedVector pins every such
 * buffer to a 64-byte boundary (one x86 cache line, the widest vector
 * register in play) so the start of each array is both cache-line
 * clean and legal for any load width.
 *
 * Note the micro-kernels still use unaligned load *instructions* for
 * interior addresses (row pointers offset by a column panel need not
 * stay aligned); the allocator guarantee is about the buffer base.
 */
#ifndef DTC_COMMON_ALIGNED_H
#define DTC_COMMON_ALIGNED_H

#include <cstddef>
#include <new>
#include <vector>

namespace dtc {

/** Minimal C++17 aligned-new allocator (default: one cache line). */
template <typename T, std::size_t Align = 64>
class AlignedAllocator
{
  public:
    static_assert((Align & (Align - 1)) == 0,
                  "alignment must be a power of two");
    static_assert(Align >= alignof(T),
                  "alignment must not weaken the type's own");

    using value_type = T;

    AlignedAllocator() noexcept = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept
    {
    }

    T*
    allocate(std::size_t n)
    {
        return static_cast<T*>(::operator new(
            n * sizeof(T), std::align_val_t(Align)));
    }

    void
    deallocate(T* p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t(Align));
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    friend bool
    operator==(const AlignedAllocator&, const AlignedAllocator&)
    {
        return true;
    }
    friend bool
    operator!=(const AlignedAllocator&, const AlignedAllocator&)
    {
        return false;
    }
};

/** std::vector whose buffer starts on a 64-byte boundary. */
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

} // namespace dtc

#endif // DTC_COMMON_ALIGNED_H

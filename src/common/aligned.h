/**
 * @file
 * 64-byte-aligned heap allocation.
 *
 * The SIMD engine (src/engine/simd/) loads the lane/tile arrays built
 * by DtcKernel::prepare() and the rounded copy of B that PreparedDense
 * owns with vector instructions.  A default-aligned std::vector<float> only
 * guarantees alignof(float); issuing *aligned* vector loads against it
 * would be UB, and even with unaligned loads a buffer that straddles
 * cache lines costs split accesses.  AlignedVector (and AlignedArray,
 * its uninitialised fixed-size twin) pins every such buffer to a
 * 64-byte boundary (one x86 cache line, the widest vector register in
 * play) so the start of each array is both cache-line clean and legal
 * for any load width.
 *
 * Note the micro-kernels still use unaligned load *instructions* for
 * interior addresses (row pointers offset by a column panel need not
 * stay aligned); the allocator guarantee is about the buffer base.
 */
#ifndef DTC_COMMON_ALIGNED_H
#define DTC_COMMON_ALIGNED_H

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
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

/**
 * AlignedAllocator whose no-argument construct() default-initialises,
 * so resize() on a vector of trivial @p T leaves the new elements
 * unwritten; a construct() with a value (vector(n, v), resize(n, v),
 * copies) still writes it.  Only a storage type that opts in uses it
 * (DenseMatrix::uninitialized); AlignedVector keeps zeroing on
 * resize().
 */
template <typename T, std::size_t Align = 64>
class DefaultInitAllocator : public AlignedAllocator<T, Align>
{
  public:
    DefaultInitAllocator() noexcept = default;

    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U, Align>&) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = DefaultInitAllocator<U, Align>;
    };

    template <typename U>
    void
    construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>)
    {
        ::new (static_cast<void*>(p)) U;
    }

    template <typename U, typename... Args>
    void
    construct(U* p, Args&&... args)
    {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
};

/** Frees an AlignedArray's buffer. */
template <typename T>
struct AlignedArrayDelete
{
    void
    operator()(T* p) const noexcept
    {
        AlignedAllocator<T>().deallocate(p, 0);
    }
};

/**
 * A 64-byte-aligned heap array of trivial @p T whose elements are
 * left uninitialised — for a buffer whose first pass writes every
 * element anyway, where AlignedVector's value-initialisation would be
 * one more full (serial) write of it.
 */
template <typename T>
using AlignedArray = std::unique_ptr<T[], AlignedArrayDelete<T>>;

/** Allocates an uninitialised AlignedArray of @p n elements. */
template <typename T>
AlignedArray<T>
makeAlignedArray(std::size_t n)
{
    static_assert(std::is_trivial_v<T>,
                  "uninitialised storage needs a trivial type");
    return AlignedArray<T>(AlignedAllocator<T>().allocate(n));
}

} // namespace dtc

#endif // DTC_COMMON_ALIGNED_H

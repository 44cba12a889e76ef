// 64-byte-aligned allocation for SIMD-touched storage.
//
// The simd kernel layer (src/simd/kernels.h) reads weight caches, potential
// accumulators, and event arrays with 256-bit vector loads. The kernels use
// unaligned load/store instructions -- alignment is never a correctness
// requirement -- but 64-byte (cache-line) alignment keeps vector accesses
// from splitting lines, so every buffer a kernel streams through should come
// from here: aligned_vector<T> for growable scratch, and the TSNZ loader
// re-aligns adopted weight payloads (dnn/serialize.cpp) so mmap'd and
// read()-fallback models see the same guarantee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace tsnn {

/// Cache-line alignment every SIMD-facing buffer guarantees.
inline constexpr std::size_t kSimdAlign = 64;

/// True when `p` honors kSimdAlign.
inline bool is_simd_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kSimdAlign == 0;
}

/// Minimal std::allocator drop-in handing out kSimdAlign-aligned blocks via
/// C++17 aligned operator new (so allocation counters that intercept the
/// global operators still see these allocations). Elements a vector adds
/// without a value are default-initialized, not value-initialized:
/// resize(n) and the size constructor leave trivial elements (floats, ids)
/// indeterminate instead of zero-filling them, so a producer that writes
/// into fresh room pays no fill. Ask for zeros explicitly (assign(n, 0),
/// resize(n, 0)).
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert(alignof(T) <= kSimdAlign, "over-aligned element type");

  AlignedAllocator() = default;
  template <typename U>
  /*implicit*/ AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kSimdAlign}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kSimdAlign});
  }

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// Growable buffer whose data() is always kSimdAlign-aligned.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace tsnn

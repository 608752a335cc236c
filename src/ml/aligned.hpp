// Minimal allocators: an over-aligned one so hot byte/double arrays
// (bin codes, kernel scratch) start on cache-line boundaries — the same
// 64-byte alignment discipline the nmarena payload keeps on disk and in
// memory — and a page-backed one for large, short-lived scratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include <sys/mman.h>

namespace nevermind::ml {

template <typename T, std::size_t Alignment>
struct AlignedAlloc {
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");
  using value_type = T;

  /// Explicit rebind: the default rebind_alloc cannot re-instantiate a
  /// template with a non-type (alignment) parameter.
  template <typename U>
  struct rebind {
    using other = AlignedAlloc<U, Alignment>;
  };

  AlignedAlloc() noexcept = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U, Alignment>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Alignment});
  }

  template <typename U>
  bool operator==(const AlignedAlloc<U, Alignment>&) const noexcept {
    return true;
  }
};

/// Page-backed allocator for large per-task scratch that is built and
/// dropped many times: each buffer is its own anonymous mapping, so
/// freeing it returns the pages at once and never raises malloc's
/// dynamic mmap/trim thresholds, which would otherwise leave freed
/// scratch resident in the heap arenas.
template <typename T>
struct PageAlloc {
  using value_type = T;

  PageAlloc() noexcept = default;
  template <typename U>
  PageAlloc(const PageAlloc<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (p != nullptr) ::munmap(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PageAlloc<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using PageVector = std::vector<T, PageAlloc<T>>;

/// Cache-line-aligned storage for per-row uint8 bin codes.
using AlignedCodeVector = std::vector<std::uint8_t, AlignedAlloc<std::uint8_t, 64>>;

/// Cache-line-aligned double buffers (kernel weight/histogram scratch).
using AlignedDoubleVector = std::vector<double, AlignedAlloc<double, 64>>;

}  // namespace nevermind::ml

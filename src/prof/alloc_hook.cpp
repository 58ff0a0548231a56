// Global operator new/delete overrides that count heap allocations into
// the profiler's kAllocations slot while it is armed.
//
// Built as an OBJECT library (prof_alloc_hook) and linked into the tools/
// and bench/ binaries: a strong operator new in a static archive would
// never be extracted (the symbol already resolves inside libstdc++), so
// object-level linkage is the only reliable way in. Of the test binaries
// only alloc_gate_test links it, and counts just the phases it arms the
// profiler around; every other suite leaves gtest's allocations uncounted.
//
// Disabled under the sanitizers (they interpose the allocator themselves)
// and under -DSIMMR_PROFILER=OFF.
#include "prof/profiler.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SIMMR_PROF_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SIMMR_PROF_ALLOC_HOOK 0
#endif
#endif
#ifndef SIMMR_PROF_ALLOC_HOOK
#define SIMMR_PROF_ALLOC_HOOK SIMMR_PROF_COMPILED
#endif

#if SIMMR_PROF_ALLOC_HOOK

#include <cstdlib>
#include <new>

namespace {

void* CountedAlloc(std::size_t size) {
  simmr::prof::Count(simmr::prof::Counter::kAllocations);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t alignment) {
  simmr::prof::Count(simmr::prof::Counter::kAllocations);
  const std::size_t align = static_cast<std::size_t>(alignment);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded != 0 ? rounded : align))
    return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAlignedAlloc(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return CountedAlignedAlloc(size, alignment);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // SIMMR_PROF_ALLOC_HOOK

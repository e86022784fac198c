// Records the largest single allocation request, so a builder test can
// check that no allocation grows with the distance between points.
// Replacing the global operator new is legal exactly once per program;
// this test binary owns it. It lives in its own translation unit so the
// compiler cannot see the malloc-backed definition at container call
// sites (which would trip -Wmismatched-new-delete false positives).

#include <atomic>
#include <cstdlib>
#include <new>

namespace mcds_test {
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace mcds_test

void* operator new(std::size_t n) {
  std::size_t seen = mcds_test::g_largest_alloc.load(std::memory_order_relaxed);
  while (n > seen && !mcds_test::g_largest_alloc.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

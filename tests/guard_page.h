// Guard-page operands for out-of-bounds tests: two private anonymous
// pages, the second mapped PROT_NONE, so any access past the end of an
// operand placed against the boundary faults at once. ASan does not
// instrument masked vector intrinsics; these operands are the evidence
// that a partial load or store touches nothing past its last lane.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace shalom::testing {

class GuardedPages {
 public:
  GuardedPages() : page_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
    void* p = mmap(nullptr, 2 * page_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<std::uint8_t*>(p);
    if (mprotect(base_ + page_, page_, PROT_NONE) != 0) {
      munmap(base_, 2 * page_);
      throw std::runtime_error("mprotect failed");
    }
  }
  ~GuardedPages() { munmap(base_, 2 * page_); }
  GuardedPages(const GuardedPages&) = delete;
  GuardedPages& operator=(const GuardedPages&) = delete;

  /// Start of `count` elements of T whose last one ends exactly at the
  /// first byte of the PROT_NONE page.
  template <typename T>
  T* ending_at_guard(std::size_t count) const {
    if (count * sizeof(T) > page_) throw std::length_error("operand > page");
    return reinterpret_cast<T*>(base_ + page_ - count * sizeof(T));
  }

 private:
  std::size_t page_;
  std::uint8_t* base_ = nullptr;
};

}  // namespace shalom::testing

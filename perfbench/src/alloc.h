// Heap-allocation counters of the traced program.
//
// perfbench_traced links alloc_hook.cpp, which replaces the global
// operator new/delete with versions that bump thread-local counters;
// perfbench links alloc_off.cpp instead, so the untraced end-to-end
// numbers come from the unmodified allocator.
#ifndef PERFBENCH_ALLOC_H
#define PERFBENCH_ALLOC_H

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::int64_t allocs = 0;
  std::int64_t bytes = 0;
};

/// True only in the traced program (the hook is linked in).
bool alloc_hook_installed() noexcept;

/// This thread's allocations so far (zeros without the hook).
AllocCounts thread_alloc_counts() noexcept;

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_H

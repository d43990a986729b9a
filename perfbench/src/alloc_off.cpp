// The untraced program: no allocation hook.
#include "alloc.h"

namespace perfbench {

bool alloc_hook_installed() noexcept { return false; }

AllocCounts thread_alloc_counts() noexcept { return {}; }

}  // namespace perfbench

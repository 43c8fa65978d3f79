// Heap-allocation counter for the traced run.
//
// alloc_counter.cpp replaces the global operator new/delete of the
// benchmark binary (and only that binary: the library is untouched).
// Counting is off by default so untraced runs pay one predictable
// branch per allocation; the traced run switches it on around the
// phases it attributes.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Starts counting from zero (counts allocations from every thread).
void alloc_counting_start();

/// Stops counting and returns what was counted since the last start.
AllocCounts alloc_counting_stop();

}  // namespace perfbench

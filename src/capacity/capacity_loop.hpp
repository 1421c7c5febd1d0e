// Old names of the compact allocator's loop and options. The compact
// allocator runs under the one serving epoch driver, serve::EpochLoop
// (serve/event_loop.hpp), with the shared serve::AllocatorOptions; these
// aliases are kept only because perfbench/traced_run.cpp uses them.
#pragma once

#include "capacity/compact_allocator.hpp"
#include "serve/event_loop.hpp"
#include "serve/online_allocator.hpp"

namespace rlslb::capacity {

using CompactOptions = serve::AllocatorOptions;
using CapacityLoopOptions = serve::LoopOptions;
using CapacityLoop = serve::EpochLoop<CompactAllocator>;

}  // namespace rlslb::capacity

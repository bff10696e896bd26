// Test-thread access to actor state on a RealCluster: the event loop writes
// that state, so the test reads it on the same loop instead of racing it.
#pragma once

#include <future>

#include "runtime/real_runtime.hpp"

namespace bft::runtime {

/// Runs `read` on process `id`'s event loop and returns its result. The
/// cluster must be running and `id` must not be crashed.
template <typename Read>
auto read_on_loop(RealCluster& cluster, ProcessId id, Read read) {
  std::promise<decltype(read())> result;
  auto future = result.get_future();
  cluster.post(id, [&] { result.set_value(read()); });
  return future.get();
}

}  // namespace bft::runtime

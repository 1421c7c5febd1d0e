// The serving subsystem's unit of traffic: one timestamped workload event.
//
// A trace is an ordered stream of events over anonymous balls identified by
// a trace-scoped id:
//   - Arrive:   a new ball (job/shard/connection) enters with an integer
//               weight >= 1; the allocator decides its bin.
//   - Depart:   a previously-arrived ball leaves (service completion).
//   - Resample: the ball's RLS migration clock fires; the allocator samples
//               a candidate bin and migrates iff the paper's local-search
//               rule accepts.
// Generators (workload/generators.hpp) produce these streams; the online
// allocator (serve/online_allocator.hpp) consumes them. Traces can be
// recorded to and replayed from JSONL (workload/trace_io.hpp), so any live
// generator run is reproducible byte-for-byte offline.
#pragma once

#include <cstdint>
#include <string_view>

namespace rlslb::workload {

enum class EventKind : std::uint8_t { kArrive = 0, kDepart = 1, kResample = 2 };

/// The heaviest ball any input may bring in (generator params, compose
/// specs, replayed traces): bin loads are int64 sums of weights, which
/// this bound keeps far from overflow.
inline constexpr std::int64_t kMaxBallWeight = INT32_MAX;

struct Event {
  double time = 0.0;       // trace timestamp, nondecreasing
  EventKind kind = EventKind::kArrive;
  std::int64_t ball = 0;   // trace-scoped id, assigned sequentially on arrival
  std::int64_t weight = 0; // ball weight (>= 1 on Arrive, 0 otherwise)

  friend bool operator==(const Event&, const Event&) = default;
};

/// Stable wire name ("arrive" / "depart" / "resample").
[[nodiscard]] const char* kindName(EventKind kind);
/// Inverse of kindName; returns false on an unknown name.
[[nodiscard]] bool kindFromName(std::string_view name, EventKind* out);

}  // namespace rlslb::workload

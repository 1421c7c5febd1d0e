// Trace recording and replay in three interchangeable formats.
//
//   JSONL   one event per line, e.g. {"t":1.25,"kind":"arrive","ball":7,"w":1}
//           (exactly these four keys)
//   CSV     "t,kind,ball,w" header then one row per event — the import
//           format for externally produced workloads (spreadsheets, other
//           simulators)
//   binary  "RLT1" magic then fixed 25-byte little-endian records
//           (f64 time, u8 kind, i64 ball, i64 weight) — the compact format
//           for the big capacity-sweep traces (~3x smaller than JSONL)
//
// Every format is bit-exact: text timestamps serialize through
// report::formatJsonNumber (shortest round-trip form) and the binary format
// stores the raw f64 bits, so record -> replay reproduces the original
// stream bit-for-bit in any format and format conversions compose without
// loss (pinned by tests/test_workload_compose.cpp). RecordingTrace tees any
// generator into a stream; makeTraceReader builds the matching replay
// generator; traceFormatFromPath picks the format from a file extension.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "workload/generators.hpp"

namespace rlslb::workload {

enum class TraceFormat : std::uint8_t { kJsonl, kCsv, kBinary };

[[nodiscard]] const char* traceFormatName(TraceFormat format);

/// Format implied by a path's extension: ".csv" -> CSV, ".bin" -> binary,
/// anything else (including ".jsonl") -> JSONL.
[[nodiscard]] TraceFormat traceFormatFromPath(const std::string& path);

/// The CSV header row and the binary magic (no trailing newline on either).
inline constexpr const char* kTraceCsvHeader = "t,kind,ball,w";
inline constexpr const char* kTraceBinaryMagic = "RLT1";
inline constexpr std::size_t kTraceBinaryRecordBytes = 25;  // f64 + u8 + 2*i64

/// One event as a JSONL line (no trailing newline).
[[nodiscard]] std::string formatTraceEvent(const Event& event);

/// Parse one JSONL line: an object with exactly the keys t, kind, ball and
/// w. On failure returns false and, when `error` is non-null, stores a
/// message.
[[nodiscard]] bool parseTraceEvent(const std::string& line, Event* out,
                                   std::string* error = nullptr);

/// One event as a CSV row (no trailing newline).
[[nodiscard]] std::string formatTraceEventCsv(const Event& event);

/// Parse one CSV row (not the header). Same error contract as
/// parseTraceEvent.
[[nodiscard]] bool parseTraceEventCsv(const std::string& line, Event* out,
                                      std::string* error = nullptr);

/// Append one fixed-width little-endian record to `out`.
void appendTraceEventBinary(std::string* out, const Event& event);

/// Decode one record from a 25-byte buffer. Returns false on a bad kind
/// byte.
[[nodiscard]] bool decodeTraceEventBinary(const unsigned char* bytes, Event* out,
                                          std::string* error = nullptr);

/// One step of a replay reader: an event, the clean end of the stream, or
/// a malformed line/record (with a message).
enum class TraceReadStatus : std::uint8_t { kEvent, kEnd, kMalformed };

/// Pass-through generator that appends every emitted event to `out` in the
/// chosen format. Writes the format prologue (CSV header / binary magic) at
/// construction; binary streams must be opened in binary mode by the
/// caller.
class RecordingTrace final : public TraceGenerator {
 public:
  RecordingTrace(TraceGenerator& inner, std::ostream& out,
                 TraceFormat format = TraceFormat::kJsonl);

  bool next(Event* out) override;
  /// inner.fill, then the batch's writes: the same bytes as next() calls.
  std::size_t fill(Event* out, std::size_t count) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  void write(const Event& event);

  TraceGenerator* inner_;
  std::ostream* out_;
  TraceFormat format_;
};

/// Replay generator over a JSONL stream (blank lines skipped; a malformed
/// line aborts — a corrupt trace must not silently truncate an experiment).
class JsonlTraceReader final : public TraceGenerator {
 public:
  explicit JsonlTraceReader(std::istream& in) : in_(&in) {}

  /// next() that reports corruption instead of aborting.
  TraceReadStatus read(Event* out, std::string* error);
  bool next(Event* out) override;
  [[nodiscard]] std::string name() const override { return "replay"; }

 private:
  std::istream* in_;
};

/// Replay generator over a CSV stream (header mandatory and verified; same
/// abort-on-corruption contract as JSONL).
class CsvTraceReader final : public TraceGenerator {
 public:
  explicit CsvTraceReader(std::istream& in) : in_(&in) {}

  /// next() that reports corruption instead of aborting.
  TraceReadStatus read(Event* out, std::string* error);
  bool next(Event* out) override;
  [[nodiscard]] std::string name() const override { return "replay"; }

 private:
  std::istream* in_;
  bool headerChecked_ = false;
};

/// Replay generator over a binary stream (magic mandatory and verified; a
/// truncated trailing record aborts).
class BinaryTraceReader final : public TraceGenerator {
 public:
  explicit BinaryTraceReader(std::istream& in) : in_(&in) {}

  /// next() that reports corruption instead of aborting.
  TraceReadStatus read(Event* out, std::string* error);
  bool next(Event* out) override;
  [[nodiscard]] std::string name() const override { return "replay"; }

 private:
  std::istream* in_;
  bool magicChecked_ = false;
};

/// Replay generator for `format` over `in` (which the factory does not
/// own).
[[nodiscard]] std::unique_ptr<TraceGenerator> makeTraceReader(std::istream& in,
                                                              TraceFormat format);

/// The dry parse: count the events in a trace stream by draining a replay
/// reader that reports corruption instead of aborting (resets nothing;
/// pass a fresh stream). Returns the event count, or -1 with `error`
/// naming the first bad event ("event N: why", N 1-based). Besides the
/// format, it checks what the allocators would otherwise abort on or
/// silently accept:
///   - every time is finite, non-negative, and not before the previous
///     event's;
///   - ball ids are non-negative;
///   - an arrive carries a weight in [1, kMaxBallWeight] and an id that
///     is not live; a depart or resample names a live id (a hash set of
///     the live ids, so memory grows with the peak live population).
/// Replay scenarios use it to size epochs and to reject a bad trace before
/// they write any output.
[[nodiscard]] std::int64_t scanTraceEvents(std::istream& in, TraceFormat format,
                                           std::string* error);

}  // namespace rlslb::workload

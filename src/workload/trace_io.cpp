#include "workload/trace_io.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <unordered_set>
#include <utility>

#include "report/json.hpp"
#include "util/assert.hpp"

namespace rlslb::workload {

const char* traceFormatName(TraceFormat format) {
  switch (format) {
    case TraceFormat::kJsonl: return "jsonl";
    case TraceFormat::kCsv: return "csv";
    case TraceFormat::kBinary: return "binary";
  }
  RLSLB_ASSERT_MSG(false, "unknown TraceFormat");
  return "?";
}

TraceFormat traceFormatFromPath(const std::string& path) {
  const auto endsWith = [&path](const char* suffix) {
    const std::string s(suffix);
    return path.size() >= s.size() && path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  if (endsWith(".csv")) return TraceFormat::kCsv;
  if (endsWith(".bin")) return TraceFormat::kBinary;
  return TraceFormat::kJsonl;
}

std::string formatTraceEvent(const Event& event) {
  std::string out = "{\"t\":";
  out += report::formatJsonNumber(event.time);
  out += ",\"kind\":\"";
  out += kindName(event.kind);
  out += "\",\"ball\":";
  out += std::to_string(event.ball);
  out += ",\"w\":";
  out += std::to_string(event.weight);
  out += "}";
  return out;
}

bool parseTraceEvent(const std::string& line, Event* out, std::string* error) {
  std::string parseError;
  const report::Json rec = report::Json::parse(line, &parseError);
  if (!parseError.empty()) {
    if (error != nullptr) *error = parseError;
    return false;
  }
  const report::Json* t = rec.find("t");
  const report::Json* kind = rec.find("kind");
  const report::Json* ball = rec.find("ball");
  const report::Json* w = rec.find("w");
  if (t == nullptr || kind == nullptr || ball == nullptr || w == nullptr) {
    if (error != nullptr) *error = "trace event missing one of t/kind/ball/w: " + line;
    return false;
  }
  for (const std::string& key : rec.keys()) {
    if (key != "t" && key != "kind" && key != "ball" && key != "w") {
      if (error != nullptr) *error = "unknown trace event key \"" + key + "\": " + line;
      return false;
    }
  }
  using Kind = report::Json::Kind;
  if ((t->kind() != Kind::Int && t->kind() != Kind::Double) ||
      kind->kind() != Kind::String || ball->kind() != Kind::Int || w->kind() != Kind::Int) {
    if (error != nullptr) {
      *error = "trace event needs numeric t, string kind, integer ball and w: " + line;
    }
    return false;
  }
  EventKind kindValue{};
  if (!kindFromName(kind->asString(), &kindValue)) {
    if (error != nullptr) *error = "unknown trace event kind: " + kind->asString();
    return false;
  }
  out->time = t->asDouble();
  out->kind = kindValue;
  out->ball = ball->asInt();
  out->weight = w->asInt();
  return true;
}

std::string formatTraceEventCsv(const Event& event) {
  std::string out = report::formatJsonNumber(event.time);
  out += ',';
  out += kindName(event.kind);
  out += ',';
  out += std::to_string(event.ball);
  out += ',';
  out += std::to_string(event.weight);
  return out;
}

bool parseTraceEventCsv(const std::string& line, Event* out, std::string* error) {
  const auto fail = [&](const char* message) {
    if (error != nullptr) *error = std::string(message) + ": " + line;
    return false;
  };
  std::size_t fieldStart[4];
  std::size_t fieldEnd[4];
  std::size_t pos = 0;
  for (int f = 0; f < 4; ++f) {
    fieldStart[f] = pos;
    const std::size_t comma = line.find(',', pos);
    if (f < 3) {
      if (comma == std::string::npos) return fail("CSV trace row needs 4 fields");
      fieldEnd[f] = comma;
      pos = comma + 1;
    } else {
      if (comma != std::string::npos) return fail("CSV trace row has extra fields");
      fieldEnd[f] = line.size();
    }
  }
  const auto field = [&](int f) {
    return line.substr(fieldStart[f], fieldEnd[f] - fieldStart[f]);
  };
  const auto parseInt = [&](int f, std::int64_t* value) {
    const std::string text = field(f);
    char* end = nullptr;
    *value = std::strtoll(text.c_str(), &end, 10);
    return end != text.c_str() && *end == '\0';
  };
  {
    const std::string text = field(0);
    char* end = nullptr;
    out->time = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') return fail("bad CSV timestamp");
  }
  if (!kindFromName(field(1), &out->kind)) return fail("unknown CSV event kind");
  if (!parseInt(2, &out->ball)) return fail("bad CSV ball id");
  if (!parseInt(3, &out->weight)) return fail("bad CSV weight");
  return true;
}

namespace {
void appendLe64(std::string* out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) out->push_back(static_cast<char>((v >> (8 * b)) & 0xff));
}
std::uint64_t readLe64(const unsigned char* bytes) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(bytes[b]) << (8 * b);
  return v;
}
}  // namespace

void appendTraceEventBinary(std::string* out, const Event& event) {
  appendLe64(out, std::bit_cast<std::uint64_t>(event.time));
  out->push_back(static_cast<char>(event.kind));
  appendLe64(out, static_cast<std::uint64_t>(event.ball));
  appendLe64(out, static_cast<std::uint64_t>(event.weight));
}

bool decodeTraceEventBinary(const unsigned char* bytes, Event* out, std::string* error) {
  out->time = std::bit_cast<double>(readLe64(bytes));
  const unsigned char kind = bytes[8];
  if (kind > static_cast<unsigned char>(EventKind::kResample)) {
    if (error != nullptr) *error = "bad binary trace kind byte " + std::to_string(kind);
    return false;
  }
  out->kind = static_cast<EventKind>(kind);
  out->ball = static_cast<std::int64_t>(readLe64(bytes + 9));
  out->weight = static_cast<std::int64_t>(readLe64(bytes + 17));
  return true;
}

RecordingTrace::RecordingTrace(TraceGenerator& inner, std::ostream& out,
                               TraceFormat format)
    : inner_(&inner), out_(&out), format_(format) {
  switch (format_) {
    case TraceFormat::kJsonl: break;
    case TraceFormat::kCsv: *out_ << kTraceCsvHeader << '\n'; break;
    case TraceFormat::kBinary: out_->write(kTraceBinaryMagic, 4); break;
  }
}

bool RecordingTrace::next(Event* out) {
  if (!inner_->next(out)) return false;
  write(*out);
  return true;
}

std::size_t RecordingTrace::fill(Event* out, std::size_t count) {
  const std::size_t k = inner_->fill(out, count);
  for (std::size_t i = 0; i < k; ++i) write(out[i]);
  return k;
}

void RecordingTrace::write(const Event& event) {
  switch (format_) {
    case TraceFormat::kJsonl:
      *out_ << formatTraceEvent(event) << '\n';
      break;
    case TraceFormat::kCsv:
      *out_ << formatTraceEventCsv(event) << '\n';
      break;
    case TraceFormat::kBinary: {
      std::string record;
      record.reserve(kTraceBinaryRecordBytes);
      appendTraceEventBinary(&record, event);
      out_->write(record.data(), static_cast<std::streamsize>(record.size()));
      break;
    }
  }
}

namespace {
/// next() on top of read(): a malformed stream aborts with its diagnostic.
bool nextOrAbort(TraceReadStatus status, const std::string& error) {
  if (status == TraceReadStatus::kMalformed) {
    std::fprintf(stderr, "trace replay: %s\n", error.c_str());
  }
  RLSLB_ASSERT_MSG(status != TraceReadStatus::kMalformed,
                   "malformed trace; a corrupt trace must not truncate silently");
  return status == TraceReadStatus::kEvent;
}
}  // namespace

TraceReadStatus JsonlTraceReader::read(Event* out, std::string* error) {
  std::string line;
  while (std::getline(*in_, line)) {
    if (line.empty()) continue;
    return parseTraceEvent(line, out, error) ? TraceReadStatus::kEvent
                                             : TraceReadStatus::kMalformed;
  }
  return TraceReadStatus::kEnd;
}

bool JsonlTraceReader::next(Event* out) {
  std::string error;
  return nextOrAbort(read(out, &error), error);
}

TraceReadStatus CsvTraceReader::read(Event* out, std::string* error) {
  std::string line;
  while (std::getline(*in_, line)) {
    if (!headerChecked_) {
      headerChecked_ = true;
      if (line == kTraceCsvHeader) continue;
      *error = std::string("missing CSV header '") + kTraceCsvHeader + "'";
      return TraceReadStatus::kMalformed;
    }
    if (line.empty()) continue;
    return parseTraceEventCsv(line, out, error) ? TraceReadStatus::kEvent
                                                : TraceReadStatus::kMalformed;
  }
  return TraceReadStatus::kEnd;
}

bool CsvTraceReader::next(Event* out) {
  std::string error;
  return nextOrAbort(read(out, &error), error);
}

TraceReadStatus BinaryTraceReader::read(Event* out, std::string* error) {
  if (!magicChecked_) {
    magicChecked_ = true;
    char magic[4] = {};
    in_->read(magic, 4);
    if (in_->gcount() != 4 || std::string(magic, 4) != kTraceBinaryMagic) {
      *error = "missing RLT1 binary magic";
      return TraceReadStatus::kMalformed;
    }
  }
  unsigned char record[kTraceBinaryRecordBytes];
  in_->read(reinterpret_cast<char*>(record), kTraceBinaryRecordBytes);
  if (in_->gcount() == 0) return TraceReadStatus::kEnd;
  if (in_->gcount() != static_cast<std::streamsize>(kTraceBinaryRecordBytes)) {
    *error = "truncated binary record";
    return TraceReadStatus::kMalformed;
  }
  return decodeTraceEventBinary(record, out, error) ? TraceReadStatus::kEvent
                                                    : TraceReadStatus::kMalformed;
}

bool BinaryTraceReader::next(Event* out) {
  std::string error;
  return nextOrAbort(read(out, &error), error);
}

std::unique_ptr<TraceGenerator> makeTraceReader(std::istream& in, TraceFormat format) {
  switch (format) {
    case TraceFormat::kJsonl: return std::make_unique<JsonlTraceReader>(in);
    case TraceFormat::kCsv: return std::make_unique<CsvTraceReader>(in);
    case TraceFormat::kBinary: return std::make_unique<BinaryTraceReader>(in);
  }
  RLSLB_ASSERT_MSG(false, "unknown TraceFormat");
  return nullptr;
}

namespace {
/// The replay boundary's stream-level rules (see scanTraceEvents), fed one
/// parsed event at a time.
class ReplayChecker {
 public:
  bool check(const Event& event, std::string* error) {
    if (!std::isfinite(event.time)) return fail(error, "time is not a finite number");
    if (event.time < 0.0) {
      return fail(error, "time " + report::formatJsonNumber(event.time) + " is negative");
    }
    if (event.time < lastTime_) {
      return fail(error, "time " + report::formatJsonNumber(event.time) +
                             " is before the previous event's " +
                             report::formatJsonNumber(lastTime_));
    }
    lastTime_ = event.time;
    if (event.ball < 0) {
      return fail(error, "ball id " + std::to_string(event.ball) + " is negative");
    }
    const auto ball = [&event] { return "ball " + std::to_string(event.ball); };
    if (event.kind == EventKind::kArrive) {
      if (event.weight < 1 || event.weight > kMaxBallWeight) {
        return fail(error, "arrive of " + ball() + " has weight " +
                               std::to_string(event.weight) + ", not in [1, " +
                               std::to_string(kMaxBallWeight) + "]");
      }
      if (!live_.insert(event.ball).second) {
        return fail(error, "arrive of " + ball() + ", which is already live");
      }
      return true;
    }
    const bool known = event.kind == EventKind::kDepart ? live_.erase(event.ball) == 1
                                                        : live_.count(event.ball) == 1;
    if (!known) {
      return fail(error, std::string(kindName(event.kind)) + " of " + ball() +
                             ", which is not live");
    }
    return true;
  }

 private:
  static bool fail(std::string* error, std::string message) {
    *error = std::move(message);
    return false;
  }

  double lastTime_ = 0.0;
  std::unordered_set<std::int64_t> live_;
};

template <class Reader>
std::int64_t scanWith(std::istream& in, std::string* error) {
  Reader reader(in);
  ReplayChecker checker;
  Event event;
  std::int64_t count = 0;
  for (;;) {
    const TraceReadStatus status = reader.read(&event, error);
    if (status == TraceReadStatus::kEnd) return count;
    if (status == TraceReadStatus::kEvent && checker.check(event, error)) {
      ++count;
      continue;
    }
    *error = "event " + std::to_string(count + 1) + ": " + *error;
    return -1;
  }
}
}  // namespace

std::int64_t scanTraceEvents(std::istream& in, TraceFormat format, std::string* error) {
  switch (format) {
    case TraceFormat::kJsonl: return scanWith<JsonlTraceReader>(in, error);
    case TraceFormat::kCsv: return scanWith<CsvTraceReader>(in, error);
    case TraceFormat::kBinary: return scanWith<BinaryTraceReader>(in, error);
  }
  RLSLB_ASSERT_MSG(false, "unknown TraceFormat");
  return -1;
}

}  // namespace rlslb::workload

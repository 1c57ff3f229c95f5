// Shared helpers for the benchmark driver: wall-clock timing, a flat JSON
// writer, the fingerprint hash, the in-memory span recorder and a step-time
// histogram. Nothing here touches simulation state.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a 64-bit, rendered as 16 hex digits: a stable digest of a
/// fingerprint or report so child processes can be compared by value.
inline std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

/// Host-speed calibration: times `reps` walks of 2^19 dependent random
/// reads over a fixed 8 MiB table. The kernel is the driver's own code, so
/// no change to the program moves it; what moves it is the host, whose
/// memory and cache contention from other tenants slows it together with
/// the simulations. run.py scales the end-to-end times by it.
std::vector<double> calibrate(std::size_t reps);

/// One-line JSON object built field by field. Doubles keep every digit
/// (%.17g); keys are written as given, so callers pass plain identifiers.
class JsonLine {
 public:
  JsonLine& num(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& count(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& str(std::string_view key, std::string_view v) {
    std::string q = "\"";
    for (const char c : v) {
      if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
        q += esc;
        continue;
      }
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    q += '"';
    return raw(key, q);
  }
  JsonLine& list(std::string_view key, const std::vector<double>& vs) {
    std::string out = "[";
    char buf[40];
    for (std::size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", vs[i]);
      if (i > 0) out += ',';
      out += buf;
    }
    return raw(key, out + "]");
  }
  JsonLine& object(std::string_view key, const JsonLine& inner) {
    return raw(key, inner.text());
  }
  JsonLine& raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Spans recorded around the calls the driver makes into each layer, kept
/// in memory and written out once at the end (name, start, end, parent).
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    int parent;
  };

  /// RAII span: opens on construction, closes on destruction, and makes
  /// itself the parent of spans opened while it is alive.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name) : rec_{rec} {
      id_ = static_cast<int>(rec_.spans_.size());
      rec_.spans_.push_back(
          Span{std::move(name), rec_.now(), 0.0, rec_.current_});
      rec_.current_ = id_;
    }
    ~Scope() {
      rec_.spans_[static_cast<std::size_t>(id_)].end_s = rec_.now();
      rec_.current_ = rec_.spans_[static_cast<std::size_t>(id_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    double elapsed() const {
      return rec_.now() - rec_.spans_[static_cast<std::size_t>(id_)].start_s;
    }

   private:
    SpanRecorder& rec_;
    int id_{0};
  };

  /// Writes {"spans":[...]} to `path`; returns false if the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  double now() const { return seconds_since(origin_); }

  Clock::time_point origin_{Clock::now()};
  std::vector<Span> spans_;
  int current_{-1};
};

/// Nanosecond histogram of sampled step() times; samples above the
/// last bucket are clamped into it.
class StepHistogram {
 public:
  void add(std::uint64_t ns) {
    ++buckets_[ns < kBuckets ? ns : kBuckets - 1];
    ++total_;
  }
  /// Smallest bucket b with at least q of the samples at or below it.
  double quantile(double q) const;

 private:
  static constexpr std::size_t kBuckets = 1 << 17;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t total_{0};
};

/// Flat name -> value table of per-layer metrics, name-sorted on output.
using MetricTable = std::map<std::string, double>;

}  // namespace perfbench

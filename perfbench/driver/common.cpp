#include "common.hpp"

#include <fstream>

namespace perfbench {

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonLine line;
    line.count("id", i)
        .str("name", s.name)
        .num("start_s", s.start_s)
        .num("end_s", s.end_s)
        .raw("parent", std::to_string(s.parent));
    out << line.text() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out.flush());
}

std::vector<double> calibrate(std::size_t reps) {
  constexpr std::uint32_t kMask = (1u << 21) - 1;
  std::vector<std::uint32_t> table(kMask + 1);
  std::uint64_t x = 88172645463325252ull;  // xorshift64, fixed seed
  for (auto& v : table) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<std::uint32_t>(x) & kMask;
  }
  std::vector<double> out;
  std::uint32_t p = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < (1u << 19); ++i) p = (table[p] ^ i) & kMask;
    out.push_back(seconds_since(t0));
  }
  static volatile std::uint32_t sink;  // keeps the walk from being elided
  sink = p;
  return out;
}

double StepHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double want = q * static_cast<double>(total_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= want) return static_cast<double>(i);
  }
  return static_cast<double>(kBuckets - 1);
}

}  // namespace perfbench

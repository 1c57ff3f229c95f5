// Network latency models.
//
// The paper's simulator "reproduces realistic round-trip delays"; we model
// one-way latency as base propagation + a geographic component + per-message
// jitter. Node positions are derived from a stateless hash of (seed, node),
// so latencies are stable for a node pair, symmetric, and new nodes joining
// an expanding network need no registration step.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"

namespace aria::sim {

/// Interface: one-way delivery latency for a message from `a` to `b`.
/// `rng` supplies per-message jitter; implementations must be deterministic
/// given (a, b, rng state).
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual Duration latency(NodeId a, NodeId b, Rng& rng) = 0;
};

/// Constant latency — for tests and microbenchmarks.
class FixedLatencyModel final : public LatencyModel {
 public:
  explicit FixedLatencyModel(Duration d) : d_{d} {}
  Duration latency(NodeId, NodeId, Rng&) override { return d_; }

 private:
  Duration d_;
};

/// Geographic model: nodes live on a unit square; one-way latency is
///   base + distance * span + jitter,
/// with jitter uniform in [0, jitter_fraction * (base + distance * span)].
/// Defaults give one-way delays of roughly 5–90 ms, i.e. wide-area RTTs of
/// 10–180 ms.
class GeoLatencyModel final : public LatencyModel {
 public:
  struct Params {
    std::uint64_t seed{0x9E3779B9};
    Duration base{Duration::millis(5)};
    Duration span{Duration::millis(60)};  // latency across the full diagonal
    double jitter_fraction{0.2};
  };

  GeoLatencyModel() : GeoLatencyModel(Params{}) {}
  explicit GeoLatencyModel(Params params) : params_{params} {}

  Duration latency(NodeId a, NodeId b, Rng& rng) override;

  /// Deterministic position of a node on the unit square.
  void position(NodeId n, double& x, double& y) const;

 private:
  Params params_;
};

}  // namespace aria::sim

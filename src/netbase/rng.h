// Deterministic random number generation.
//
// Every stochastic decision in the simulator flows from an explicit seed so
// that experiments are exactly reproducible. `Rng` wraps a mersenne twister
// with the handful of draws the codebase needs; `fork` derives independent
// sub-streams so modules do not perturb each other's sequences when the
// call order changes.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace rrr {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  // Derives an independent generator; `salt` distinguishes sibling forks.
  Rng fork(std::uint64_t salt) const {
    // splitmix-style mixing of (seed, salt) into a fresh seed.
    std::uint64_t z = seed_ + 0x9E3779B97F4A7C15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return Rng(z ^ (z >> 31));
  }

  // Derives the i-th shard stream for parallel work. Like fork() this is
  // const and does not touch the parent's engine state, so shards can be
  // pre-split before a parallel section and no Rng is ever shared across
  // threads. A distinct mixing domain keeps split(i) disjoint from fork(i):
  // modules that already fork by small salts cannot collide with shard ids.
  Rng split(std::uint64_t shard) const {
    std::uint64_t z = (seed_ ^ 0xA5A5A5A55A5A5A5AULL) +
                      0xD1B54A32D192ED03ULL * (shard + 1);
    z = (z ^ (z >> 32)) * 0xDABA0B6EB09322E3ULL;
    z = (z ^ (z >> 29)) * 0xC6A4A7935BD1E995ULL;
    return Rng(z ^ (z >> 32));
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // Uniform real in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  double exponential(double rate) {
    assert(rate > 0.0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Pareto-ish heavy-tailed integer in [1, cap]: used for degree
  // distributions and burst sizes.
  std::int64_t heavy_tailed(double alpha, std::int64_t cap) {
    assert(alpha > 0.0 && cap >= 1);
    double u = uniform();
    double x = 1.0 / std::pow(1.0 - u, 1.0 / alpha);
    auto v = static_cast<std::int64_t>(x);
    return v < 1 ? 1 : (v > cap ? cap : v);
  }

  // Picks an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights) {
    assert(!weights.empty());
    std::discrete_distribution<std::size_t> dist(weights.begin(),
                                                 weights.end());
    return dist(engine_);
  }

  // Uniformly chosen element index of a container size.
  std::size_t index(std::size_t size) {
    assert(size > 0);
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

  // Exact generator state as a portable text blob (mt19937_64's standard
  // stream representation), for the checkpoint store. load_state restores
  // the draw sequence bit-identically; a blob that does not parse in full
  // returns false and leaves the generator unchanged.
  std::string save_state() const;
  [[nodiscard]] bool load_state(const std::string& state);

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

inline std::string Rng::save_state() const {
  std::ostringstream out;
  out << seed_ << ' ' << engine_;
  return out.str();
}

inline bool Rng::load_state(const std::string& state) {
  std::istringstream in(state);
  std::uint64_t seed = 0;
  std::mt19937_64 engine;
  if (!(in >> seed >> engine) || !(in >> std::ws).eof()) return false;
  seed_ = seed;
  engine_ = engine;
  return true;
}

// Stateless mixing hash used for per-flow load-balancer decisions: the same
// 5-tuple must map to the same diamond branch every time, independent of any
// generator state.
inline std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 33)) * 0xFF51AFD7ED558CCDULL;
  x = (x ^ (x >> 33)) * 0xC4CEB9FE1A85EC53ULL;
  return x ^ (x >> 33);
}

inline std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

}  // namespace rrr

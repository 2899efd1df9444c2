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
#include <cstddef>
#include <cstdint>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace rrr {

// std::mt19937_64, output for output, seeded on its first draw. Most
// generators in the simulator are keyed per measurement and draw a few dozen
// numbers, so seeding all 312 state words and twisting them up front (what
// std::mt19937_64's constructor and first draw do) would dominate their
// cost. The first n - m = 156 outputs of the standard first twist read only
// x[k], x[k+1] and x[k+156] of the seeding recurrence
// x[i] = f * (x[i-1] ^ (x[i-1] >> 62)) + i, so this engine serves them
// from a sliding head of m + 1 = 157 seeded words: the first draw seeds
// x[0..156], draw k advances the recurrence one step to x[156+k], then
// twists and tempers that one word. Draw 156 switches to a real
// std::mt19937_64(seed) after discard(156), which shares the head's
// storage. Construction, and so Rng::fork and Rng::split, only stores the
// seed.
class LazyMt19937_64 {
  using Std = std::mt19937_64;

 public:
  using result_type = Std::result_type;
  static constexpr result_type min() { return Std::min(); }
  static constexpr result_type max() { return Std::max(); }

  explicit LazyMt19937_64(result_type seed) : seed_(seed) {}

  result_type seed() const { return seed_; }

  result_type operator()() {
    return drawn_ < kHeadDraws ? head_draw() : full_draw();
  }

  // The standard engine this one equals, and the reverse: adopt `engine`'s
  // state (drawn from whatever), reporting `seed` as this engine's seed.
  Std standard() const;
  void assign(result_type seed, const Std& engine);

 private:
  static constexpr std::size_t kN = Std::state_size;
  static constexpr std::size_t kM = Std::shift_size;
  // Outputs of the first twist whose inputs are all seeded words.
  static constexpr std::uint32_t kHeadDraws = kN - kM;
  static constexpr std::size_t kRing = kM + 1;
  // drawn_ past the head: full_ is the live engine.
  static constexpr std::uint32_t kFull = kHeadDraws + 1;
  static_assert(kHeadDraws <= kM, "draw k reads x[k+1] from the head ring");

  static result_type seed_step(result_type prev, std::size_t i) {
    return Std::initialization_multiplier *
               (prev ^ (prev >> (Std::word_size - 2))) +
           i;
  }
  result_type head_draw();
  // Not inlined: GCC cannot see that full_ is live whenever drawn_ ==
  // kFull and warns (-Wmaybe-uninitialized) where a local Rng inlines it.
  [[gnu::noinline]] result_type full_draw() {
    if (drawn_ != kFull) {
      ::new (&full_) Std(seed_);
      full_.discard(kHeadDraws);
      drawn_ = kFull;
    }
    return full_();
  }

  result_type seed_;
  std::uint32_t drawn_ = 0;  // draws so far, or kFull
  union {
    // x[k .. k+156] of the seeding recurrence, x[i] in slot i % kRing;
    // written by the first draw, so never read uninitialized.
    result_type head_[kRing];
    Std full_;  // live once drawn_ == kFull
  };
};

static_assert(std::is_trivially_copyable_v<LazyMt19937_64>);
static_assert(sizeof(LazyMt19937_64) <=
                  sizeof(std::mt19937_64) + 2 * sizeof(std::uint64_t),
              "the head shares the full engine's storage");

inline LazyMt19937_64::result_type LazyMt19937_64::head_draw() {
  const std::size_t k = drawn_++;
  if (k == 0) {
    head_[0] = seed_;
    for (std::size_t i = 1; i < kRing; ++i) {
      head_[i] = seed_step(head_[i - 1], i);
    }
  } else {
    // x[k+156] takes the slot of x[k-1], which no later draw reads.
    head_[(k + kM) % kRing] = seed_step(head_[(k + kM - 1) % kRing], k + kM);
  }
  constexpr result_type kUpper = ~result_type{0} << Std::mask_bits;
  const result_type y = (head_[k] & kUpper) | (head_[k + 1] & ~kUpper);
  result_type z = head_[(k + kM) % kRing] ^ (y >> 1) ^
                  ((y & 1) != 0 ? Std::xor_mask : result_type{0});
  z ^= (z >> Std::tempering_u) & Std::tempering_d;
  z ^= (z << Std::tempering_s) & Std::tempering_b;
  z ^= (z << Std::tempering_t) & Std::tempering_c;
  return z ^ (z >> Std::tempering_l);
}

inline std::mt19937_64 LazyMt19937_64::standard() const {
  if (drawn_ == kFull) return full_;
  Std engine(seed_);
  engine.discard(drawn_);
  return engine;
}

inline void LazyMt19937_64::assign(result_type seed, const Std& engine) {
  seed_ = seed;
  ::new (&full_) Std(engine);
  drawn_ = kFull;
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  std::uint64_t seed() const { return engine_.seed(); }

  // Derives an independent generator; `salt` distinguishes sibling forks.
  Rng fork(std::uint64_t salt) const {
    // splitmix-style mixing of (seed, salt) into a fresh seed.
    std::uint64_t z = seed() + 0x9E3779B97F4A7C15ULL * (salt + 1);
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
    std::uint64_t z = (seed() ^ 0xA5A5A5A55A5A5A5AULL) +
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

  LazyMt19937_64& engine() { return engine_; }

  // Exact generator state as a portable text blob (mt19937_64's standard
  // stream representation), for the checkpoint store. load_state restores
  // the draw sequence bit-identically; a blob that does not parse in full
  // returns false and leaves the generator unchanged.
  std::string save_state() const;
  [[nodiscard]] bool load_state(const std::string& state);

 private:
  LazyMt19937_64 engine_;
};

inline std::string Rng::save_state() const {
  std::ostringstream out;
  out << seed() << ' ' << engine_.standard();
  return out.str();
}

inline bool Rng::load_state(const std::string& state) {
  std::istringstream in(state);
  std::uint64_t seed = 0;
  std::mt19937_64 engine;
  if (!(in >> seed >> engine) || !(in >> std::ws).eof()) return false;
  engine_.assign(seed, engine);
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

#include "store/io_env.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "netbase/parse.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rrr::store {

const char* to_string(IoOp op) {
  switch (op) {
    case IoOp::kWrite: return "write";
    case IoOp::kFsync: return "fsync";
    case IoOp::kRename: return "rename";
    case IoOp::kAppend: return "append";
    case IoOp::kRead: return "read";
  }
  return "unknown";
}

std::string RetryPolicy::spec() const {
  const RetryPolicy defaults;
  SpecWriter out;
  if (max_attempts != defaults.max_attempts) out.add("attempts", max_attempts);
  if (base_delay_us != defaults.base_delay_us) {
    out.add("base_us", base_delay_us);
  }
  if (max_delay_us != defaults.max_delay_us) out.add("max_us", max_delay_us);
  if (jitter != defaults.jitter) out.add("jitter", jitter);
  if (op_budget_us != defaults.op_budget_us) {
    out.add("budget_us", op_budget_us);
  }
  if (seed != defaults.seed) out.add("seed", seed);
  return out.str();
}

std::optional<RetryPolicy> RetryPolicy::parse(std::string_view spec) {
  const std::optional<std::vector<SpecClause>> clauses = split_spec(spec);
  if (!clauses) return std::nullopt;
  RetryPolicy policy;
  for (const auto& [key, value] : *clauses) {
    bool ok = false;
    if (key == "attempts") {
      ok = parse_into(value, policy.max_attempts, 1);
    } else if (key == "base_us") {
      ok = parse_into(value, policy.base_delay_us, 0);
    } else if (key == "max_us") {
      ok = parse_into(value, policy.max_delay_us, 0);
    } else if (key == "jitter") {
      ok = parse_into(value, policy.jitter, 0.0, 1.0);
    } else if (key == "budget_us") {
      ok = parse_into(value, policy.op_budget_us, 0);
    } else if (key == "seed") {
      ok = parse_into(value, policy.seed);
    }
    if (!ok) return std::nullopt;
  }
  return policy;
}

IoContext::IoContext(RetryPolicy policy, IoEnv* env)
    : policy_(policy), env_(env), jitter_(Rng(policy.seed).split(0x10)) {}

void IoContext::set_metrics(obs::MetricsRegistry& registry) {
  constexpr auto kRt = obs::Domain::kRuntime;
  obs_attempts_ = &registry.counter("rrr_io_attempts_total", {}, kRt,
                                    "physical store IO attempts");
  obs_retries_ = &registry.counter("rrr_io_retries_total", {}, kRt,
                                   "store IO attempts beyond the first");
  obs_transient_ =
      &registry.counter("rrr_io_transient_errors_total", {}, kRt,
                        "transient-classified store IO failures");
  obs_permanent_ =
      &registry.counter("rrr_io_permanent_errors_total", {}, kRt,
                        "permanent store IO failures");
  obs_gave_up_ = &registry.counter(
      "rrr_io_gave_up_total", {}, kRt,
      "logical store ops that exhausted the retry budget");
  obs_injected_ = &registry.counter("rrr_io_injected_faults_total", {}, kRt,
                                    "faults injected by the io fault plan");
}

IoOutcome IoContext::consult(IoOp op, std::string_view path,
                             std::uint64_t size, int attempt) {
  if (env_ == nullptr) return IoOutcome{};
  IoOutcome outcome = env_->on_op(op, path, size, attempt);
  switch (outcome.kind) {
    case IoOutcome::Kind::kOk:
      return outcome;
    case IoOutcome::Kind::kTornWrite: ++stats_.injected_torn; break;
    case IoOutcome::Kind::kBitFlip: ++stats_.injected_bitflip; break;
    case IoOutcome::Kind::kEnospc: ++stats_.injected_enospc; break;
    case IoOutcome::Kind::kEio: ++stats_.injected_eio; break;
    case IoOutcome::Kind::kCrashRename:
      ++stats_.injected_crash_rename;
      break;
  }
  obs::inc(obs_injected_);
  if (tracer_ != nullptr) tracer_->instant("io_fault", "store");
  return outcome;
}

void IoContext::note_failure(IoOp op, const StoreError& error) {
  (void)op;
  if (error.transient()) {
    ++stats_.transient_errors;
    obs::inc(obs_transient_);
  } else {
    ++stats_.permanent_errors;
    obs::inc(obs_permanent_);
  }
}

void IoContext::run(IoOp op, std::string_view path,
                    const std::function<void(int)>& attempt_fn) {
  (void)path;
  std::int64_t planned_us = 0;
  for (int attempt = 0;; ++attempt) {
    ++stats_.attempts;
    obs::inc(obs_attempts_);
    if (attempt > 0) {
      ++stats_.retries;
      obs::inc(obs_retries_);
    }
    try {
      attempt_fn(attempt);
      return;
    } catch (const StoreError& error) {
      note_failure(op, error);
      const bool more_attempts = attempt + 1 < policy_.max_attempts;
      if (!error.transient() || !more_attempts) {
        if (error.transient() && !more_attempts) {
          ++stats_.gave_up;
          obs::inc(obs_gave_up_);
          if (tracer_ != nullptr) tracer_->instant("io_gave_up", "store");
        }
        throw;
      }
      // Bounded exponential backoff: base * 2^attempt capped at max, with
      // `jitter` of the delay randomized from the dedicated stream. The
      // budget is accounted in planned microseconds so a loaded machine
      // retries exactly as often as an idle one.
      std::int64_t delay = policy_.base_delay_us;
      for (int i = 0; i < attempt && delay < policy_.max_delay_us; ++i) {
        delay *= 2;
      }
      delay = std::min(delay, policy_.max_delay_us);
      if (policy_.jitter > 0.0 && delay > 0) {
        const double scale =
            1.0 - policy_.jitter + policy_.jitter * jitter_.uniform();
        delay = std::max<std::int64_t>(
            0, static_cast<std::int64_t>(static_cast<double>(delay) * scale));
      }
      if (planned_us + delay > policy_.op_budget_us) {
        ++stats_.gave_up;
        obs::inc(obs_gave_up_);
        if (tracer_ != nullptr) tracer_->instant("io_gave_up", "store");
        throw;
      }
      planned_us += delay;
      stats_.backoff_us += delay;
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
      }
    }
  }
}

}  // namespace rrr::store

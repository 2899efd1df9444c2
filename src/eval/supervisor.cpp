#include "eval/supervisor.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace rrr::eval {

namespace {

// The scrub runs under the same fault plan and retry policy as the run
// itself — recovery IO is not magically immune to the flaky disk.
store::RecoveryReport scrub_dir(const std::string& dir,
                                const WorldParams& params) {
  std::unique_ptr<fault::IoFaultInjector> env;
  if (params.io_fault_plan.enabled()) {
    env = std::make_unique<fault::IoFaultInjector>(params.io_fault_plan);
  }
  store::IoContext io(params.io_retry, env.get());
  store::RecoveryManager manager(dir, &io);
  return manager.scrub(World::fingerprint(params));
}

}  // namespace

Supervisor::Supervisor(WorldParams params, SupervisorParams sup)
    : params_(std::move(params)), sup_(sup), next_params_(params_) {
  if (params_.checkpoint_dir.empty()) {
    throw std::invalid_argument(
        "supervised runs require a checkpoint_dir to recover from");
  }
  // A supervised restart after a real crash (kill -9) begins by scrubbing
  // the directory it is about to read, so the crash's debris — a torn
  // snapshot, a severed WAL tail — never reaches the resume path.
  if (!params_.resume_from.empty()) {
    scrub_dir(params_.resume_from, params_);
  }
}

void Supervisor::run(const World::Hooks& hooks) {
  std::int64_t last_hook_window = -1;
  World::Hooks wrapped;
  wrapped.on_signals = [&](std::int64_t window, TimePoint window_end,
                           std::vector<signals::StalenessSignal>&& sigs) {
    if (hooks.on_signals) {
      hooks.on_signals(window, window_end, std::move(sigs));
    }
    // Only a hook that *returned* counts as delivered: when a WAL append
    // inside the hook dies, the whole window is re-delivered on recovery
    // and its ops re-log exactly once.
    last_hook_window = window;
  };
  wrapped.on_day = hooks.on_day;

  for (int attempt = 0;; ++attempt) {
    try {
      if (world_ == nullptr) {
        world_ = std::make_unique<World>(next_params_);
        // A resumed incarnation starts past the windows it replayed; user
        // hooks do not fire again for those.
        last_hook_window =
            std::max(last_hook_window, world_->completed_windows() - 1);
      }
      world_->run_all(wrapped);
      // A run can *succeed* while still having absorbed crash-rename
      // faults, each of which strands a `*.tmp`. Sweep them into corrupt/
      // so a finished supervised directory never holds live-looking
      // debris (cheap: no snapshot revalidation).
      store::RecoveryManager tidy(params_.checkpoint_dir);
      tidy.sweep_stray_tmp();
      break;
    } catch (const store::StoreError& error) {
      world_.reset();
      if (attempt >= sup_.max_recoveries) throw;
      RecoveryEvent event;
      event.attempt = attempt;
      event.error = error.what();
      event.resume_window = last_hook_window + 1;
      next_params_ = params_;
      next_params_.resume_from = params_.checkpoint_dir;
      next_params_.resume_window = last_hook_window + 1;
      // Re-derive the injected-fault seed per incarnation (still
      // deterministic). A fresh incarnation rebuilds its injector, whose
      // streams restart from position zero — with the original seed the
      // retry would replay the exact draw sequence that killed the last
      // incarnation and a permanent fault early in a stream would pin
      // every incarnation to the same death, a livelock no real flaky
      // disk exhibits. Robustness knobs are outside the fingerprint, so
      // the semantic timeline is unaffected.
      if (next_params_.io_fault_plan.enabled()) {
        next_params_.io_fault_plan.seed =
            Rng(params_.io_fault_plan.seed).split(0x5EEDu + attempt).seed();
      }
      event.report = scrub_dir(params_.checkpoint_dir, next_params_);
      events_.push_back(std::move(event));
    }
  }
  publish();
}

World& Supervisor::world() {
  assert(world_ != nullptr);
  return *world_;
}

std::unique_ptr<World> Supervisor::take_world() {
  return std::move(world_);
}

void Supervisor::publish() {
  assert(world_ != nullptr);
  if (obs::TraceRecorder* tracer = world_->tracer()) {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      tracer->instant("recovery", "supervisor");
    }
  }
  obs::MetricsRegistry* registry = world_->metrics_mutable();
  if (registry == nullptr) return;
  constexpr auto kRt = obs::Domain::kRuntime;
  std::int64_t quarantined = 0;
  std::int64_t truncations = 0;
  for (const RecoveryEvent& event : events_) {
    quarantined += static_cast<std::int64_t>(event.report.quarantined.size());
    if (event.report.wal_truncated) ++truncations;
  }
  registry
      ->counter("rrr_recovery_attempts_total", {}, kRt,
                "recoveries the supervisor performed this run")
      .set(static_cast<std::int64_t>(events_.size()));
  registry
      ->counter("rrr_recovery_quarantined_total", {}, kRt,
                "artifacts quarantined into corrupt/ across recoveries")
      .set(quarantined);
  registry
      ->counter("rrr_recovery_wal_truncations_total", {}, kRt,
                "recoveries that truncated a corrupt WAL tail")
      .set(truncations);
  registry
      ->gauge("rrr_recovery_last_resume_window", {}, kRt,
              "window the most recent recovery resumed at")
      .set(events_.empty() ? -1 : events_.back().resume_window);
}

}  // namespace rrr::eval

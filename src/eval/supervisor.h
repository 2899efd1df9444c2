// Self-healing supervisor loop around a checkpointed World run.
//
// A supervised run turns any classified store failure — a snapshot write
// that hits injected ENOSPC after the retry budget, a WAL append that
// dies, a resume that trips over a corrupted frame — into an automatic
// recovery instead of a process death:
//
//   1. The crashed incarnation is destroyed.
//   2. The checkpoint directory is scrubbed (store::RecoveryManager):
//      stray temp files and corrupt snapshots are quarantined into
//      corrupt/, the WAL is truncated at its first bad frame.
//   3. A fresh World is constructed with resume_from = checkpoint_dir and
//      resume_window = last_hook_window + 1 — the first window whose
//      on_signals hook did *not* complete — and the run continues.
//
// Exactly-once hook-op contract: hook ops of window w are logged with
// clock w + 1, and the resume path's WAL rewrite drops ops with clock
// beyond the resume target, so a window whose hook was interrupted
// mid-flight is re-delivered fresh and its ops re-log exactly once.
// The flip side is that hooks MAY be re-invoked for a window they already
// saw (the crash hit after the hook returned but before durable state
// caught up): hook state must be overwrite-idempotent per window — keyed
// by window index, not appended blindly.
//
// Because replay is deterministic and injected storage faults never alter
// the semantic timeline, a supervised run's semantic signal stream is
// byte-identical to the clean run's — the chaos harness's acceptance bar.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eval/world.h"
#include "store/recovery.h"

namespace rrr::eval {

struct SupervisorParams {
  // Recoveries allowed before the final StoreError propagates. The bound
  // exists for genuinely unrecoverable environments (a read-only disk),
  // not for injected faults, which always eventually clear or quarantine.
  int max_recoveries = 5;
};

// One recovery the supervisor performed, for harness logs and tests.
struct RecoveryEvent {
  int attempt = 0;                 // 0-based recovery index
  std::int64_t resume_window = 0;  // window the retry resumed at
  std::string error;               // what() of the triggering StoreError
  store::RecoveryReport report;    // what the pre-resume scrub found
};

class Supervisor {
 public:
  // `params` must have a non-empty checkpoint_dir (recovery restores from
  // it); throws std::invalid_argument otherwise. When params.resume_from
  // is set the directory is scrubbed up front, so a supervised restart
  // after a real crash never trips over the crash's debris.
  explicit Supervisor(WorldParams params, SupervisorParams sup = {});

  // Runs the world end to end (World::run_all), recovering as described
  // above. Throws the final StoreError once max_recoveries is exhausted.
  // `hooks` must follow the re-delivery contract in the header comment.
  void run(const World::Hooks& hooks = {});

  // The current incarnation: valid inside hooks during run() and after
  // run() returns. Asserts when no incarnation exists yet.
  World& world();
  // Releases the final incarnation (the supervisor becomes empty).
  std::unique_ptr<World> take_world();

  const std::vector<RecoveryEvent>& recoveries() const { return events_; }

 private:
  // Writes rrr_recovery_* counters and trace instants into the final
  // incarnation's registry, so recoveries are visible wherever the run's
  // stats land.
  void publish();

  WorldParams params_;
  SupervisorParams sup_;
  WorldParams next_params_;  // what the next incarnation is built from
  std::unique_ptr<World> world_;
  std::vector<RecoveryEvent> events_;
};

}  // namespace rrr::eval

// Crash-fault tolerance (DESIGN.md §14): the storage fault model, the
// retry layer, the atomic-write hygiene, the RecoveryManager scrub, and
// the self-healing supervisor. The layers are pinned bottom-up:
//
//   - IoFaultPlan / IoFaultInjector: spec round-trips, deterministic
//     replay, transient clearing.
//   - RetryPolicy / IoContext::run: transient errors retry and recover,
//     permanent errors surface immediately, exhausted attempts and blown
//     budgets give up loudly.
//   - framing: injected torn writes / bit flips / crash-renames leave
//     exactly the on-disk artifact the model promises, and every
//     *reported* failure of write_file_atomic removes its temp file (the
//     temp-leak regression).
//   - RecoveryManager: stray tmp sweep, snapshot quarantine + fallback,
//     WAL tail truncation, idempotence, fingerprint enforcement.
//   - Supervisor: a (crash-at-window x io-fault-seed) grid where every
//     point recovers unaided and reproduces the clean run's signal
//     stream and semantic stats byte for byte.
//   - the WAL reader, fed seeded random and damaged logs: it returns or
//     throws StoreError, nothing else.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "eval/supervisor.h"
#include "eval/world.h"
#include "fault/io_plan.h"
#include "netbase/rng.h"
#include "store/checkpoint.h"
#include "store/framing.h"
#include "store/io_env.h"
#include "store/recovery.h"
#include "store/serial.h"

namespace rrr {
namespace {

namespace fs = std::filesystem;
using store::IoOp;
using store::IoOutcome;
using store::StoreError;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = fs::path(::testing::TempDir()) /
            ("rrr-rec-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Scripted environment: hands out a queued outcome per op kind (kOk once
// the queue drains), recording every consultation.
class ScriptedEnv : public store::IoEnv {
 public:
  std::map<IoOp, std::deque<IoOutcome>> script;
  std::vector<std::pair<IoOp, int>> calls;

  IoOutcome on_op(IoOp op, std::string_view, std::uint64_t,
                  int attempt) override {
    calls.emplace_back(op, attempt);
    auto it = script.find(op);
    if (it == script.end() || it->second.empty()) return IoOutcome{};
    IoOutcome out = it->second.front();
    it->second.pop_front();
    return out;
  }
};

IoOutcome reported(IoOutcome::Kind kind, bool transient) {
  IoOutcome out;
  out.kind = kind;
  out.transient = transient;
  return out;
}

// Fast retry policy: real microsecond sleeps, kept tiny.
store::RetryPolicy fast_policy(int attempts) {
  store::RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.base_delay_us = 10;
  policy.max_delay_us = 100;
  return policy;
}

// --- IoFaultPlan ---

TEST(IoFaultPlan, SpecRoundTripsAndDefaultIsInert) {
  fault::IoFaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_EQ(plan.spec(), "");
  ASSERT_TRUE(fault::IoFaultPlan::parse("").has_value());

  plan.torn_write_rate = 0.05;
  plan.bit_flip_rate = 0.01;
  plan.enospc_rate = 0.02;
  plan.eio_fsync_rate = 0.03;
  plan.eio_read_rate = 0.04;
  plan.crash_rename_rate = 0.06;
  plan.transient_fraction = 0.5;
  plan.transient_clears_after = 3;
  plan.seed = 9;
  EXPECT_TRUE(plan.enabled());
  std::optional<fault::IoFaultPlan> parsed =
      fault::IoFaultPlan::parse(plan.spec());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->spec(), plan.spec());
  EXPECT_EQ(parsed->torn_write_rate, plan.torn_write_rate);
  EXPECT_EQ(parsed->transient_clears_after, plan.transient_clears_after);
  EXPECT_EQ(parsed->seed, plan.seed);

  EXPECT_FALSE(fault::IoFaultPlan::parse("bogus=1").has_value());
  EXPECT_FALSE(fault::IoFaultPlan::parse("torn=2.0").has_value());
  EXPECT_FALSE(fault::IoFaultPlan::parse("torn").has_value());
  for (const char* value : {"nan", "inf", " 0.5", "+0.5", "0.5x"}) {
    EXPECT_FALSE(
        fault::IoFaultPlan::parse(std::string("torn=") + value).has_value())
        << value;
  }
}

TEST(IoFaultPlan, InjectorReplaysBitIdenticallyPerSeed) {
  fault::IoFaultPlan plan;
  plan.torn_write_rate = 0.3;
  plan.bit_flip_rate = 0.2;
  plan.enospc_rate = 0.2;
  plan.crash_rename_rate = 0.3;
  plan.eio_read_rate = 0.3;
  plan.seed = 5;
  auto replay = [&](const fault::IoFaultPlan& p) {
    fault::IoFaultInjector env(p);
    std::vector<std::tuple<int, std::uint64_t, int, bool>> outcomes;
    for (int i = 0; i < 200; ++i) {
      IoOp op = static_cast<IoOp>(i % 5);
      IoOutcome out =
          env.on_op(op, "file-" + std::to_string(i), 1000, /*attempt=*/0);
      outcomes.emplace_back(static_cast<int>(out.kind), out.offset, out.bit,
                            out.transient);
    }
    return outcomes;
  };
  EXPECT_EQ(replay(plan), replay(plan));
  fault::IoFaultPlan other = plan;
  other.seed = 6;
  EXPECT_NE(replay(plan), replay(other));
}

TEST(IoFaultPlan, TransientFaultClearsAfterConfiguredRetries) {
  fault::IoFaultPlan plan;
  plan.enospc_rate = 1.0;
  plan.transient_fraction = 1.0;
  plan.transient_clears_after = 2;
  fault::IoFaultInjector env(plan);
  IoOutcome first = env.on_op(IoOp::kWrite, "x", 10, 0);
  EXPECT_EQ(first.kind, IoOutcome::Kind::kEnospc);
  EXPECT_TRUE(first.transient);
  // attempt 1 replays the cached fault; attempt 2 clears it.
  EXPECT_EQ(env.on_op(IoOp::kWrite, "x", 10, 1).kind,
            IoOutcome::Kind::kEnospc);
  EXPECT_EQ(env.on_op(IoOp::kWrite, "x", 10, 2).kind, IoOutcome::Kind::kOk);
  EXPECT_EQ(env.stats().cleared, 1);
}

TEST(IoFaultPlan, ReadFaultsAreAlwaysTransient) {
  fault::IoFaultPlan plan;
  plan.eio_read_rate = 1.0;
  plan.transient_fraction = 0.0;  // even with no transient write faults
  fault::IoFaultInjector env(plan);
  IoOutcome out = env.on_op(IoOp::kRead, "snap", 0, 0);
  EXPECT_EQ(out.kind, IoOutcome::Kind::kEio);
  EXPECT_TRUE(out.transient);
}

// --- RetryPolicy / IoContext ---

TEST(RetryPolicy, SpecRoundTrips) {
  store::RetryPolicy policy;
  EXPECT_EQ(policy.spec(), "");
  policy.max_attempts = 5;
  policy.base_delay_us = 100;
  policy.jitter = 0.25;
  policy.seed = 3;
  std::optional<store::RetryPolicy> parsed =
      store::RetryPolicy::parse(policy.spec());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->max_attempts, 5);
  EXPECT_EQ(parsed->base_delay_us, 100);
  EXPECT_EQ(parsed->jitter, 0.25);
  EXPECT_EQ(parsed->seed, 3u);
  EXPECT_FALSE(store::RetryPolicy::parse("attempts=0").has_value());
  EXPECT_FALSE(store::RetryPolicy::parse("nope=1").has_value());
  for (const char* value : {"nan", "inf", " 0.5", "+0.5", "0.5x"}) {
    EXPECT_FALSE(
        store::RetryPolicy::parse(std::string("jitter=") + value).has_value())
        << value;
  }
}

TEST(IoContext, TransientErrorRetriesAndRecovers) {
  ScriptedEnv env;
  env.script[IoOp::kWrite] = {reported(IoOutcome::Kind::kEnospc, true),
                              reported(IoOutcome::Kind::kEio, true)};
  store::IoContext io(fast_policy(4), &env);
  int succeeded_at = -1;
  io.run(IoOp::kWrite, "p", [&](int attempt) {
    IoOutcome out = io.consult(IoOp::kWrite, "p", 100, attempt);
    if (out.kind == IoOutcome::Kind::kEnospc ||
        out.kind == IoOutcome::Kind::kEio) {
      throw StoreError(StoreError::Kind::kIo, "injected", out.transient);
    }
    succeeded_at = attempt;
  });
  EXPECT_EQ(succeeded_at, 2);
  EXPECT_EQ(io.stats().attempts, 3);
  EXPECT_EQ(io.stats().retries, 2);
  EXPECT_EQ(io.stats().transient_errors, 2);
  EXPECT_EQ(io.stats().permanent_errors, 0);
  EXPECT_EQ(io.stats().gave_up, 0);
  EXPECT_GT(io.stats().backoff_us, 0);
}

TEST(IoContext, PermanentErrorSurfacesImmediately) {
  ScriptedEnv env;
  env.script[IoOp::kWrite] = {reported(IoOutcome::Kind::kEnospc, false)};
  store::IoContext io(fast_policy(4), &env);
  try {
    io.run(IoOp::kWrite, "p", [&](int attempt) {
      IoOutcome out = io.consult(IoOp::kWrite, "p", 100, attempt);
      if (out.kind != IoOutcome::Kind::kOk) {
        throw StoreError(StoreError::Kind::kIo, "injected", out.transient);
      }
    });
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_FALSE(e.transient());
  }
  EXPECT_EQ(io.stats().attempts, 1);
  EXPECT_EQ(io.stats().retries, 0);
  EXPECT_EQ(io.stats().permanent_errors, 1);
}

TEST(IoContext, ExhaustedAttemptsGiveUp) {
  store::IoContext io(fast_policy(3), nullptr);
  int attempts_seen = 0;
  EXPECT_THROW(io.run(IoOp::kAppend, "p",
                      [&](int) {
                        ++attempts_seen;
                        throw StoreError(StoreError::Kind::kIo, "flaky",
                                         /*transient=*/true);
                      }),
               StoreError);
  EXPECT_EQ(attempts_seen, 3);
  EXPECT_EQ(io.stats().gave_up, 1);
}

TEST(IoContext, CorruptionKindsNeverRetry) {
  store::IoContext io(fast_policy(5), nullptr);
  int attempts_seen = 0;
  EXPECT_THROW(io.run(IoOp::kRead, "p",
                      [&](int) {
                        ++attempts_seen;
                        throw StoreError(StoreError::Kind::kBadChecksum,
                                         "corrupt");
                      }),
               StoreError);
  EXPECT_EQ(attempts_seen, 1);
}

TEST(IoContext, PlannedBackoffBudgetBoundsRetries) {
  store::RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.base_delay_us = 64;
  policy.max_delay_us = 1 << 20;
  policy.jitter = 0.0;  // deterministic doubling: 64, 128, 256, ...
  policy.op_budget_us = 1000;
  store::IoContext io(policy, nullptr);
  int attempts_seen = 0;
  EXPECT_THROW(io.run(IoOp::kWrite, "p",
                      [&](int) {
                        ++attempts_seen;
                        throw StoreError(StoreError::Kind::kIo, "flaky",
                                         /*transient=*/true);
                      }),
               StoreError);
  // 64+128+256+512 = 960 fits the 1000 us budget; the next doubling does
  // not, so the op stops long before the 1000-attempt cap.
  EXPECT_EQ(attempts_seen, 5);
  EXPECT_LE(io.stats().backoff_us, policy.op_budget_us);
}

// --- framing under injected faults ---

TEST(FramingFaults, TornWriteLandsPrefixAndReadsAsClassifiedError) {
  TempDir dir("torn");
  const std::string path = dir.str() + "/file";
  std::string frame;
  store::append_frame(frame, "test", std::string(100, 'x'));

  ScriptedEnv env;
  IoOutcome torn;
  torn.kind = IoOutcome::Kind::kTornWrite;
  torn.offset = 17;
  env.script[IoOp::kWrite] = {torn};
  store::IoContext io(fast_policy(1), &env);
  store::write_file_atomic(path, frame, &io);  // succeeds: fault is silent

  std::string on_disk = read_bytes(path);
  EXPECT_EQ(on_disk.size(), 17u);
  EXPECT_EQ(on_disk, frame.substr(0, 17));
  EXPECT_EQ(io.stats().injected_torn, 1);
  try {
    store::MappedFile file(path);
    store::read_all_frames(file.view());
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.kind(), StoreError::Kind::kTruncated);
  }
}

TEST(FramingFaults, BitFlipFailsTheChecksum) {
  TempDir dir("flip");
  const std::string path = dir.str() + "/file";
  std::string frame;
  store::append_frame(frame, "test", std::string(100, 'x'));

  ScriptedEnv env;
  IoOutcome flip;
  flip.kind = IoOutcome::Kind::kBitFlip;
  flip.offset = 40;  // inside the payload
  flip.bit = 3;
  env.script[IoOp::kWrite] = {flip};
  store::IoContext io(fast_policy(1), &env);
  store::write_file_atomic(path, frame, &io);

  std::string on_disk = read_bytes(path);
  ASSERT_EQ(on_disk.size(), frame.size());
  EXPECT_NE(on_disk, frame);
  try {
    store::MappedFile file(path);
    store::read_all_frames(file.view());
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.kind(), StoreError::Kind::kBadChecksum);
  }
}

TEST(FramingFaults, CrashRenameStrandsTmpAndPublishesNothing) {
  TempDir dir("crash");
  const std::string path = dir.str() + "/file";
  ScriptedEnv env;
  IoOutcome crash;
  crash.kind = IoOutcome::Kind::kCrashRename;
  env.script[IoOp::kRename] = {crash};
  store::IoContext io(fast_policy(1), &env);
  store::write_file_atomic(path, "payload", &io);  // "succeeds": crash model
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".tmp"));
  EXPECT_EQ(read_bytes(path + ".tmp"), "payload");
}

// The temp-leak regression: every *reported* failure of the atomic write
// cycle — injected or real, at any site — must remove the temp file
// before the error propagates. Only the crash model above strands it.
TEST(FramingFaults, ReportedFailuresNeverLeakTheTempFile) {
  TempDir dir("leak");
  struct Site {
    const char* label;
    IoOp op;
    IoOutcome outcome;
  };
  std::vector<Site> sites = {
      {"write ENOSPC", IoOp::kWrite, reported(IoOutcome::Kind::kEnospc, false)},
      {"write EIO", IoOp::kWrite, reported(IoOutcome::Kind::kEio, false)},
      {"fsync EIO", IoOp::kFsync, reported(IoOutcome::Kind::kEio, false)},
      {"rename EIO", IoOp::kRename, reported(IoOutcome::Kind::kEio, false)},
  };
  for (const Site& site : sites) {
    const std::string path = dir.str() + "/target";
    ScriptedEnv env;
    env.script[site.op] = {site.outcome};
    store::IoContext io(fast_policy(1), &env);
    EXPECT_THROW(store::write_file_atomic(path, "payload", &io), StoreError)
        << site.label;
    EXPECT_FALSE(fs::exists(path + ".tmp")) << site.label;
    EXPECT_FALSE(fs::exists(path)) << site.label;
  }
  // A real (non-injected) rename failure: the target is a directory.
  const std::string blocked = dir.str() + "/blocked";
  fs::create_directories(blocked);
  EXPECT_THROW(store::write_file_atomic(blocked, "payload"), StoreError);
  EXPECT_FALSE(fs::exists(blocked + ".tmp"));
}

TEST(FramingFaults, TransientWriteFaultRetriesInsideTheAtomicCycle) {
  TempDir dir("retry");
  const std::string path = dir.str() + "/file";
  ScriptedEnv env;
  env.script[IoOp::kWrite] = {reported(IoOutcome::Kind::kEnospc, true)};
  store::IoContext io(fast_policy(3), &env);
  store::write_file_atomic(path, "payload", &io);  // retry succeeds
  EXPECT_EQ(read_bytes(path), "payload");
  EXPECT_EQ(io.stats().retries, 1);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(FramingFaults, TornAppendLandsPrefixAtTheLogTail) {
  TempDir dir("append");
  const std::string path = dir.str() + "/wal.log";
  store::append_file(path, "first-record|");
  ScriptedEnv env;
  IoOutcome torn;
  torn.kind = IoOutcome::Kind::kTornWrite;
  torn.offset = 4;
  env.script[IoOp::kAppend] = {torn};
  store::IoContext io(fast_policy(1), &env);
  store::append_file(path, "second-record|", &io);
  EXPECT_EQ(read_bytes(path), "first-record|seco");
}

// --- RecoveryManager ---

// A busy-but-small world, checkpointing into `dir`; identical in spirit to
// the checkpoint_resume_test fixture.
eval::WorldParams recovery_world(std::uint64_t seed) {
  eval::WorldParams params;
  params.days = 1;
  params.warmup_days = 0;
  params.corpus_pair_target = 40;
  params.corpus_dest_count = 5;
  params.public_dest_count = 15;
  params.public_traces_per_window = 30;
  params.platform.num_probes = 60;
  params.topology.num_transit = 12;
  params.topology.num_stub = 40;
  params.dynamics.interconnect_flap_per_day = 60.0;
  params.dynamics.egress_shift_per_day = 45.0;
  params.dynamics.adjacency_flap_per_day = 30.0;
  params.dynamics.te_community_churn_per_day = 80.0;
  params.dynamics.parrot_update_per_day = 150.0;
  params.seed = seed;
  params.telemetry = true;
  return params;
}

// Runs (optionally only to `stop_window`) and collects the per-window
// signal stream plus the final semantic stats, keyed for overwrite — the
// supervisor's re-delivery contract.
struct Collected {
  std::map<std::int64_t, std::string> signals;
  std::string semantic;
};

eval::World::Hooks collect_hooks(Collected& out) {
  eval::World::Hooks hooks;
  hooks.on_signals = [&out](std::int64_t window, TimePoint,
                            std::vector<signals::StalenessSignal>&& sigs) {
    std::string text;
    for (const auto& s : sigs) {
      text += s.to_string();
      text += '\n';
    }
    out.signals[window] = std::move(text);
  };
  return hooks;
}

Collected run_clean(const eval::WorldParams& params) {
  Collected out;
  eval::World world(params);
  world.run_all(collect_hooks(out));
  out.semantic = world.semantic_stats_json();
  return out;
}

std::int64_t windows_of(const eval::WorldParams& params) {
  return (params.days + params.warmup_days) * kSecondsPerDay /
         kBaseWindowSeconds;
}

TEST(RecoveryManager, SweepsStrayTmpIntoQuarantine) {
  TempDir dir("tmp");
  std::ofstream(dir.str() + "/snap-00000004.tmp") << "half-written";
  std::ofstream(dir.str() + "/wal.log.tmp") << "junk";
  std::ofstream(dir.str() + "/keep.dat") << "live";
  store::RecoveryManager manager(dir.str());
  store::RecoveryReport report = manager.scrub();
  EXPECT_EQ(report.stray_tmp, 2);
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(fs::exists(dir.str() + "/snap-00000004.tmp"));
  EXPECT_TRUE(fs::exists(manager.quarantine_dir() + "/snap-00000004.tmp"));
  EXPECT_TRUE(fs::exists(manager.quarantine_dir() + "/wal.log.tmp"));
  EXPECT_TRUE(fs::exists(dir.str() + "/keep.dat"));
  // Idempotent: a second scrub finds a healthy directory.
  EXPECT_TRUE(manager.scrub().clean());
}

TEST(RecoveryManager, QuarantineUniquifiesNameCollisions) {
  TempDir dir("collide");
  store::RecoveryManager manager(dir.str());
  for (int round = 0; round < 3; ++round) {
    std::ofstream(dir.str() + "/x.tmp") << "round " << round;
    manager.sweep_stray_tmp();
  }
  EXPECT_TRUE(fs::exists(manager.quarantine_dir() + "/x.tmp"));
  EXPECT_TRUE(fs::exists(manager.quarantine_dir() + "/x.tmp.1"));
  EXPECT_TRUE(fs::exists(manager.quarantine_dir() + "/x.tmp.2"));
}

TEST(RecoveryManager, QuarantinesCorruptSnapshotAndFallsBackToOlder) {
  eval::WorldParams params = recovery_world(81);
  TempDir dir("fallback");
  params.checkpoint_dir = dir.str();
  params.checkpoint_every = 2;
  {
    eval::World world(params);
    world.run_until(world.corpus_t0());
    world.initialize_corpus();
    world.run_until(world.start() + 8 * world.window_seconds());
  }
  std::vector<std::int64_t> snaps = store::list_snapshots(dir.str());
  ASSERT_GE(snaps.size(), 2u);
  const std::int64_t newest = snaps.back();
  const std::int64_t older = snaps[snaps.size() - 2];

  // Corrupt the newest snapshot in place (a torn write would look alike).
  const std::string newest_path =
      dir.str() + "/" + store::snapshot_name(newest);
  std::string bytes = read_bytes(newest_path);
  bytes[bytes.size() / 2] ^= 0x5A;
  std::ofstream(newest_path, std::ios::binary | std::ios::trunc) << bytes;

  store::RecoveryManager manager(dir.str());
  store::RecoveryReport report =
      manager.scrub(eval::World::fingerprint(params));
  EXPECT_EQ(report.snapshots_quarantined, 1);
  ASSERT_TRUE(report.snapshot.has_value());
  EXPECT_EQ(*report.snapshot, older);
  EXPECT_FALSE(fs::exists(newest_path));
  EXPECT_TRUE(fs::exists(manager.quarantine_dir() + "/" +
                         store::snapshot_name(newest)));

  // The scrubbed directory resumes — from the older snapshot + WAL.
  eval::WorldParams resumed = params;
  resumed.checkpoint_dir.clear();
  resumed.resume_from = dir.str();
  eval::World world(resumed);
  EXPECT_GE(world.completed_windows(), older);
}

TEST(RecoveryManager, TruncatesCorruptWalTailAndPreservesIt) {
  eval::WorldParams params = recovery_world(82);
  TempDir dir("waltail");
  params.checkpoint_dir = dir.str();
  {
    eval::World world(params);
    world.run_until(world.corpus_t0());
    world.initialize_corpus();
    world.run_until(world.start() + 4 * world.window_seconds());
  }
  const std::string wal_path = dir.str() + "/wal.log";
  const std::string good = read_bytes(wal_path);
  ASSERT_FALSE(good.empty());
  const std::size_t ops_before = store::wal_read(dir.str()).size();
  // A torn append: half a frame of garbage at the tail.
  store::append_file(wal_path, "garbage-that-is-not-a-frame");

  store::RecoveryManager manager(dir.str());
  store::RecoveryReport report = manager.scrub();
  EXPECT_TRUE(report.wal_truncated);
  EXPECT_EQ(report.wal_valid_bytes, good.size());
  EXPECT_EQ(report.wal_ops, ops_before);
  EXPECT_EQ(read_bytes(wal_path), good);
  // The severed tail is preserved in quarantine, not deleted.
  bool tail_preserved = false;
  for (const std::string& name : report.quarantined) {
    tail_preserved |= name.rfind("wal.tail-", 0) == 0;
  }
  EXPECT_TRUE(tail_preserved);
  EXPECT_EQ(store::wal_read(dir.str()).size(), ops_before);
  EXPECT_TRUE(manager.scrub().clean());
}

TEST(RecoveryManager, FingerprintMismatchQuarantinesEverySnapshot) {
  eval::WorldParams params = recovery_world(83);
  TempDir dir("wrongfp");
  params.checkpoint_dir = dir.str();
  params.checkpoint_every = 2;
  {
    eval::World world(params);
    world.run_until(world.corpus_t0());
    world.initialize_corpus();
    world.run_until(world.start() + 6 * world.window_seconds());
  }
  const std::size_t snaps = store::list_snapshots(dir.str()).size();
  ASSERT_GT(snaps, 0u);
  store::RecoveryManager manager(dir.str());
  store::RecoveryReport report = manager.scrub(/*expected_fingerprint=*/1);
  EXPECT_EQ(report.snapshots_quarantined, static_cast<int>(snaps));
  EXPECT_FALSE(report.snapshot.has_value());
  EXPECT_TRUE(store::list_snapshots(dir.str()).empty());
}

TEST(RecoveryManager, ScrubOfMissingDirectoryIsANoOp) {
  store::RecoveryManager manager("/nonexistent/rrr-recovery-test");
  EXPECT_TRUE(manager.scrub().clean());
}

// --- Supervisor ---

TEST(Supervisor, RequiresACheckpointDirectory) {
  EXPECT_THROW(eval::Supervisor(recovery_world(84)), std::invalid_argument);
}

// The in-process chaos grid: crash (destruct mid-run) at window k under
// silent and reported storage faults, then hand the directory to the
// supervisor. Every point must finish unaided, reproduce the clean run's
// per-window signal stream and semantic stats byte for byte (read from the
// world take_world() releases), and leave no stray temp file. Two crash
// points fall after initialize_corpus; the third falls inside a warm-up
// day, before it, so that world gets one.
TEST(Supervisor, CrashWindowByIoSeedGridRecoversByteIdentically) {
  const eval::WorldParams cold = recovery_world(85);
  eval::WorldParams warm = cold;
  warm.warmup_days = 1;
  const Collected clean_cold = run_clean(cold);
  const Collected clean_warm = run_clean(warm);
  ASSERT_FALSE(clean_cold.signals.empty());
  ASSERT_FALSE(clean_warm.signals.empty());

  fault::IoFaultPlan plan;
  plan.torn_write_rate = 0.05;
  plan.bit_flip_rate = 0.02;
  plan.enospc_rate = 0.02;
  plan.eio_write_rate = 0.02;
  plan.crash_rename_rate = 0.03;
  plan.transient_fraction = 0.9;

  // A world, its clean run, and the crash window counted from its start.
  struct Point {
    const eval::WorldParams* base;
    const Collected* clean;
    std::int64_t k;
  };
  const std::int64_t day = windows_of(cold);
  const Point points[] = {{&cold, &clean_cold, day / 4},
                          {&cold, &clean_cold, day / 2},
                          {&warm, &clean_warm, day / 2}};
  for (const Point& point : points) {
    for (std::uint64_t io_seed : {11u, 12u}) {
      const std::string label =
          "warmup_days=" + std::to_string(point.base->warmup_days) +
          " k=" + std::to_string(point.k) +
          " io_seed=" + std::to_string(io_seed);
      TempDir dir("grid");
      eval::WorldParams params = *point.base;
      params.checkpoint_dir = dir.str();
      params.io_fault_plan = plan;
      params.io_fault_plan.seed = io_seed;
      params.io_retry = fast_policy(3);

      Collected chaos;
      eval::World::Hooks hooks = collect_hooks(chaos);
      try {
        eval::World world(params);
        const TimePoint crash =
            world.start() + point.k * world.window_seconds();
        world.run_until(std::min(crash, world.corpus_t0()), hooks);
        if (crash > world.corpus_t0()) {
          world.initialize_corpus();
          world.run_until(crash, hooks);
        }
        // The world goes out of scope here: a crash at window k.
      } catch (const StoreError&) {
        // A reported fault beat the crash to it — also a crash.
      }

      eval::WorldParams resumed = params;
      resumed.resume_from = dir.str();
      eval::SupervisorParams sup_params;
      sup_params.max_recoveries = 50;
      eval::Supervisor supervisor(resumed, sup_params);
      supervisor.run(hooks);
      const std::unique_ptr<eval::World> world = supervisor.take_world();
      ASSERT_NE(world, nullptr) << label;
      chaos.semantic = world->semantic_stats_json();

      EXPECT_EQ(chaos.signals, point.clean->signals) << label;
      EXPECT_EQ(chaos.semantic, point.clean->semantic) << label;
      // Hygiene: no live-looking debris outside corrupt/.
      for (const fs::directory_entry& entry :
           fs::directory_iterator(dir.str())) {
        EXPECT_FALSE(entry.path().string().ends_with(".tmp"))
            << label << ": stray " << entry.path();
      }
    }
  }
}

// Supervised from the start with guaranteed-permanent reported faults and
// no retries: the run *must* die mid-flight at least once, recover, and
// still converge to the clean answer — with the recovery visible in the
// event log.
TEST(Supervisor, SelfHealsMidRunStoreFailures) {
  eval::WorldParams base = recovery_world(86);
  Collected clean = run_clean(base);

  TempDir dir("heal");
  eval::WorldParams params = base;
  params.checkpoint_dir = dir.str();
  params.io_fault_plan.enospc_rate = 0.03;
  params.io_fault_plan.transient_fraction = 0.0;  // every fault permanent
  params.io_fault_plan.seed = 4;

  Collected chaos;
  eval::SupervisorParams sup_params;
  sup_params.max_recoveries = 50;
  eval::Supervisor supervisor(params, sup_params);
  supervisor.run(collect_hooks(chaos));
  chaos.semantic = supervisor.world().semantic_stats_json();

  ASSERT_GE(supervisor.recoveries().size(), 1u)
      << "fault plan never fired; the test exercised nothing";
  for (const eval::RecoveryEvent& event : supervisor.recoveries()) {
    EXPECT_GE(event.resume_window, 0);
    EXPECT_FALSE(event.error.empty());
  }
  EXPECT_EQ(chaos.signals, clean.signals);
  EXPECT_EQ(chaos.semantic, clean.semantic);

  // The final incarnation's registry carries the recovery counters.
  const std::string stats = supervisor.world().stats_json();
  EXPECT_NE(stats.find("rrr_recovery_attempts_total"), std::string::npos);
}

TEST(Supervisor, CleanRunNeedsNoRecoveries) {
  eval::WorldParams base = recovery_world(87);
  Collected clean = run_clean(base);
  TempDir dir("quiet");
  eval::WorldParams params = base;
  params.checkpoint_dir = dir.str();
  Collected supervised;
  eval::Supervisor supervisor(params);
  supervisor.run(collect_hooks(supervised));
  supervised.semantic = supervisor.world().semantic_stats_json();
  EXPECT_TRUE(supervisor.recoveries().empty());
  EXPECT_EQ(supervised.signals, clean.signals);
  EXPECT_EQ(supervised.semantic, clean.semantic);
}

// --- seeded fuzz ---

std::string random_bytes(Rng& rng, std::int64_t size) {
  std::string out;
  for (std::int64_t i = 0; i < size; ++i) {
    out += static_cast<char>(rng.uniform_int(0, 255));
  }
  return out;
}

// Whatever wal.log holds, wal_read returns or throws StoreError: never a
// crash, a hang or another exception (the ASan job's full suite runs this
// loop, so an out-of-bounds read fails it). Half the logs are valid frames
// (correct checksums) around random or damaged op payloads; half are
// truncated or bit-flipped copies of a log a world really wrote.
TEST(WalFuzz, ReaderReturnsOrThrowsStoreError) {
  TempDir real("wal-real");
  {
    eval::WorldParams params = recovery_world(88);
    params.checkpoint_dir = real.str();
    params.checkpoint_every = 1000;  // only the log is read here
    eval::World world(params);
    eval::World::Hooks hooks;
    hooks.on_signals = [&](std::int64_t window, TimePoint window_end,
                           std::vector<signals::StalenessSignal>&&) {
      if (window % 4 != 0) return;
      for (const tr::PairKey& pair : world.plan_refreshes(2)) {
        world.refresh_pair(pair, window_end);
      }
    };
    world.run_until(world.corpus_t0(), hooks);
    world.initialize_corpus();
    world.run_until(world.start() + 32 * world.window_seconds(), hooks);
  }
  const std::string log = read_bytes(real.str() + "/wal.log");
  ASSERT_GE(store::wal_read(real.str()).size(), 10u);

  TempDir dir("wal-fuzz");
  Rng rng(20201028);
  for (int i = 0; i < 4000; ++i) {
    std::string data;
    if (i % 2 == 0) {
      for (std::int64_t f = rng.uniform_int(1, 4); f > 0; --f) {
        std::string payload;
        if (rng.bernoulli(0.5)) {
          payload = random_bytes(rng, rng.uniform_int(0, 48));
        } else {
          store::WalOp op;
          op.clock = rng.uniform_int(-2, 200);
          op.point = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          op.type = random_bytes(rng, rng.uniform_int(0, 8));
          op.payload = random_bytes(rng, rng.uniform_int(0, 24));
          payload = store::encode_wal_op(op);
          payload.resize(rng.index(payload.size() + 8));
        }
        store::append_frame(data, rng.bernoulli(0.9) ? "wal.op" : "junk",
                            payload);
      }
    } else {
      data = log;
      if (rng.bernoulli(0.5)) data.resize(rng.index(data.size() + 1));
      for (std::int64_t f = rng.uniform_int(0, 3); f > 0 && !data.empty();
           --f) {
        data[rng.index(data.size())] ^=
            static_cast<char>(1 << rng.uniform_int(0, 7));
      }
    }
    {
      std::ofstream out(dir.str() + "/wal.log",
                        std::ios::binary | std::ios::trunc);
      out << data;
    }
    try {
      (void)store::wal_read(dir.str());
    } catch (const StoreError&) {
    } catch (const std::exception& error) {
      ADD_FAILURE() << "log " << i << ": threw " << error.what();
    }
  }
}

}  // namespace
}  // namespace rrr

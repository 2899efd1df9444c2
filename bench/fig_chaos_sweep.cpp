// Chaos recovery sweep (DESIGN.md §14) — the in-process half of the chaos
// harness. A grid of (kill-at-window k) × (io-fault seed s) points, each
// verifying the crash-fault-tolerance acceptance bar:
//
//   1. A clean baseline run (no checkpointing, no storage faults) records
//      the per-window staleness-signal stream and the semantic stats.
//   2. The chaos arm runs the same world checkpointed under an injected
//      storage-fault plan, is torn down at window k (a simulated crash —
//      the World is destructed mid-run, exactly what kill -9 leaves
//      behind modulo the page cache), and is then finished by a
//      supervised resume (eval/supervisor.h) from the scrubbed directory.
//   3. The point passes when the recovered run's signal stream and
//      semantic stats are byte-identical to the clean baseline, and the
//      checkpoint directory holds no live-looking debris (every stray
//      *.tmp swept into corrupt/).
//
// The external half — a real kill -9 loop against the fig11 binary — is
// tools/chaos_smoke.py; both write the same BENCH_chaos_recovery.json
// shape for CI.
//
// Flags: --days N --pairs N --seed N --kills N --io-seeds N
//        --io-fault-plan SPEC --io-retry SPEC --work-dir D --keep-dirs
//        --out F. Each grid point sets its own checkpoint directory and
//        supervised resume, so fig11's durable-run flags (--checkpoint-dir,
//        --resume, --supervise and the rest) exit 2 here instead of being
//        overridden; the sweep writes --out, not --stats-json or
//        --trace-out.
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>

#include <unistd.h>

#include "bench_common.h"
#include "eval/supervisor.h"

namespace fs = std::filesystem;
using namespace rrr;

namespace {

// Per-window digest of the signal stream: the window's signals rendered
// to text, overwritten (not appended) on supervisor re-delivery.
using SignalDigest = std::map<std::int64_t, std::string>;

eval::World::Hooks digest_hooks(SignalDigest& digest) {
  eval::World::Hooks hooks;
  hooks.on_signals = [&digest](std::int64_t window, TimePoint,
                               std::vector<signals::StalenessSignal>&& sigs) {
    std::string text;
    for (const auto& s : sigs) {
      text += s.to_string();
      text += '\n';
    }
    digest[window] = std::move(text);
  };
  return hooks;
}

struct GridResult {
  std::int64_t kill_window = 0;
  std::uint64_t io_seed = 0;
  bool crashed_early = false;  // phase 1 died on a StoreError before k
  int recoveries = 0;
  bool signals_identical = false;
  bool semantic_identical = false;
  int stray_tmp = 0;     // *.tmp left outside corrupt/ (must be 0)
  int quarantined = 0;   // artifacts parked in corrupt/
  bool pass = false;
};

int count_stray_tmp(const std::string& dir) {
  std::error_code ec;
  int count = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.ends_with(".tmp")) ++count;
  }
  return count;
}

int count_entries(const std::string& dir) {
  std::error_code ec;
  int count = 0;
  for ([[maybe_unused]] const fs::directory_entry& entry :
       fs::directory_iterator(dir, ec)) {
    ++count;
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::string_view kOwnFlags[] = {"kills", "io-seeds", "work-dir",
                                            "keep-dirs", "out"};
  const bench::Flags flags(argc, argv,
                           {bench::kWorldFlags, bench::kFeedFaultFlags,
                            bench::kIoFaultFlags, kOwnFlags});
  eval::WorldParams base = bench::retrospective_params(flags);
  bench::apply_io_fault_flags(flags, base);
  base.days = static_cast<int>(flags.get_int("days", 2));
  base.corpus_pair_target = static_cast<int>(flags.get_int("pairs", 150));
  base.telemetry = true;  // semantic stats are the comparison artifact
  int kills = static_cast<int>(flags.get_int("kills", 2));
  int io_seeds = static_cast<int>(flags.get_int("io-seeds", 2));

  // Default chaos plan when --io-fault-plan is absent: every fault class
  // at a rate that fires multiple times per run at this scale. The retry
  // default of "no retries" would turn every reported fault into a
  // recovery, which is a valid but slow way to pass — give the retry
  // policy a small budget unless the user picked one.
  if (!base.io_fault_plan.enabled()) {
    fault::IoFaultPlan plan;
    plan.torn_write_rate = 0.02;
    plan.bit_flip_rate = 0.01;
    plan.enospc_rate = 0.01;
    plan.eio_write_rate = 0.005;
    plan.crash_rename_rate = 0.01;
    // Mostly-transient keeps some grid points alive all the way to their
    // kill window, so both crash modes — a reported fault mid-run and the
    // simulated kill — appear across the grid.
    plan.transient_fraction = 0.9;
    base.io_fault_plan = plan;
  }
  if (base.io_retry.max_attempts <= 1) {
    base.io_retry.max_attempts = 4;
    base.io_retry.base_delay_us = 50;
    base.io_retry.max_delay_us = 1000;
  }

  eval::print_banner(std::cout, "Chaos sweep",
                     "crash-at-window × io-fault-seed recovery grid",
                     "every point recovers unaided with a byte-identical "
                     "semantic signal stream");

  // Clean baseline: no checkpointing, no faults, no supervisor.
  SignalDigest clean_digest;
  std::string clean_semantic;
  std::int64_t total_windows = 0;
  std::int64_t window_seconds = 0;
  {
    eval::WorldParams params = base;
    params.io_fault_plan = fault::IoFaultPlan{};
    eval::World world(params);
    world.run_all(digest_hooks(clean_digest));
    clean_semantic = world.semantic_stats_json();
    total_windows = world.completed_windows();
    window_seconds = world.window_seconds();
  }
  std::cout << "baseline: " << total_windows << " windows, "
            << clean_digest.size() << " signal window(s) recorded\n\n";

  std::string work_root = flags.get_str("work-dir", "");
  if (work_root.empty()) {
    work_root = (fs::temp_directory_path() /
                 ("rrr_chaos_sweep." + std::to_string(::getpid())))
                    .string();
  }

  std::vector<GridResult> grid;
  for (int ki = 0; ki < kills; ++ki) {
    // Kill points spread over the run's interior, never at window 0.
    std::int64_t kill_window =
        std::max<std::int64_t>(1, total_windows * (ki + 1) / (kills + 1));
    for (int si = 0; si < io_seeds; ++si) {
      GridResult point;
      point.kill_window = kill_window;
      point.io_seed = base.io_fault_plan.seed + static_cast<std::uint64_t>(si);

      const std::string dir = work_root + "/k" + std::to_string(kill_window) +
                              "s" + std::to_string(point.io_seed);
      fs::remove_all(dir);
      fs::create_directories(dir);

      SignalDigest digest;
      eval::World::Hooks hooks = digest_hooks(digest);

      // Phase 1: checkpointed run under faults, torn down at the kill
      // window. A StoreError before that point is itself a crash.
      eval::WorldParams params = base;
      params.checkpoint_dir = dir;
      params.io_fault_plan.seed = point.io_seed;
      const TimePoint kill_time =
          TimePoint(kill_window * window_seconds);
      try {
        eval::World world(params);
        world.run_until(std::min(kill_time, world.corpus_t0()), hooks);
        if (kill_time > world.corpus_t0()) {
          world.initialize_corpus();
          world.run_until(kill_time, hooks);
        }
      } catch (const store::StoreError&) {
        point.crashed_early = true;
      }

      // Phase 2: supervised resume to the end. The supervisor scrubs the
      // crash debris up front and self-heals any further failures.
      eval::WorldParams resumed = params;
      resumed.resume_from = dir;
      // Chaos rates are far above anything a real disk produces; give the
      // supervisor headroom over its default recovery budget.
      eval::SupervisorParams sup_params;
      sup_params.max_recoveries = 100;
      eval::Supervisor supervisor(resumed, sup_params);
      supervisor.run(hooks);
      point.recoveries = static_cast<int>(supervisor.recoveries().size());
      std::unique_ptr<eval::World> world = supervisor.take_world();

      point.signals_identical = digest == clean_digest;
      point.semantic_identical =
          world->semantic_stats_json() == clean_semantic;
      point.stray_tmp = count_stray_tmp(dir);
      point.quarantined = count_entries(dir + "/corrupt");
      point.pass = point.signals_identical && point.semantic_identical &&
                   point.stray_tmp == 0;
      grid.push_back(point);

      std::cout << "kill@" << kill_window << " seed=" << point.io_seed
                << ": " << (point.pass ? "PASS" : "FAIL")
                << (point.crashed_early ? " (crashed early)" : "")
                << ", recoveries=" << point.recoveries
                << ", quarantined=" << point.quarantined
                << ", stray_tmp=" << point.stray_tmp << "\n";
    }
  }

  bool all_pass = true;
  for (const GridResult& point : grid) all_pass &= point.pass;

  const std::string out_path =
      flags.get_str("out", "BENCH_chaos_recovery.json");
  {
    std::ofstream out(out_path);
    out << "{\"schema\":\"rrr-chaos-v1\",\"mode\":\"in-process\","
        << "\"windows\":" << total_windows << ",\"grid\":[";
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const GridResult& p = grid[i];
      if (i > 0) out << ",";
      out << "{\"kill_window\":" << p.kill_window
          << ",\"io_seed\":" << p.io_seed
          << ",\"crashed_early\":" << (p.crashed_early ? "true" : "false")
          << ",\"recoveries\":" << p.recoveries
          << ",\"signals_identical\":"
          << (p.signals_identical ? "true" : "false")
          << ",\"semantic_identical\":"
          << (p.semantic_identical ? "true" : "false")
          << ",\"stray_tmp\":" << p.stray_tmp
          << ",\"quarantined\":" << p.quarantined
          << ",\"pass\":" << (p.pass ? "true" : "false") << "}";
    }
    out << "],\"pass\":" << (all_pass ? "true" : "false") << "}\n";
  }
  std::cout << "\nchaos grid: " << grid.size() << " point(s), "
            << (all_pass ? "all recovered byte-identical"
                         : "FAILURES present")
            << "; wrote " << out_path << "\n";

  if (!flags.get_bool("keep-dirs")) {
    std::error_code ec;
    fs::remove_all(work_root, ec);
  }
  return all_pass ? 0 : 1;
}

// Figure 11 & §6.2 — reusability of archival traceroutes: of all the
// traceroutes accumulated over the period, how many are still *fresh*
// (no staleness signal since they were taken, every border monitored),
// how many are *stale*, *unknown* (not fully monitorable), or fresh but
// from a probe that has since died.
//
// Paper reference: over two weeks of RIPE Atlas data (1.15B traceroutes),
// ~60% remain fresh and reusable at the end; ~4% of reusable ones are from
// dead probes (27M traces usable but unrepeatable); stale traces accumulate
// faster at first. 90.3% of user-defined measurements could be served from
// the archive (68.6% after accounting for the feedback loop).
//
// Seed replicates are independent worlds, so the sweep fans out over the
// pool; each task renders its own report and the outputs print in seed
// order whatever the parallelism.
//
// This is the long-lived deployment, and the only harness that takes the
// durable-run flags; each replicate gets its own directory D/<label>.
//
// Warm-start arm (DESIGN.md §11): `--checkpoint-dir D` snapshots each
// replicate every `--checkpoint-every N` windows; a later `--resume D`
// run fast-forwards from those snapshots (to `--resume-window K`, by
// default as far as the directory reaches) instead of replaying the engine
// from t=0. The semantic stats of cold and warm runs are byte-identical
// (the resume-determinism contract); the printed day table covers only
// post-resume days, since the bench-level archive bookkeeping is not part
// of the checkpoint.
//
// Supervised arm (DESIGN.md §14): `--supervise` wraps the run in the
// self-healing recovery supervisor, so a store failure (typically injected
// via --io-fault-plan, retried per --io-retry) scrubs the checkpoint
// directory and resumes instead of killing the process. Hooks here follow
// the supervisor's re-delivery contract: archive/table/signal state is
// keyed by day or window, never appended blindly, so a re-delivered
// boundary overwrites rather than duplicates. Incarnations are born and die
// inside the run, and the live endpoint must never serve a pointer to a
// dead one, so --supervise with --serve exits 2.
//
// A durable-run flag that nothing would read exits 2 naming it:
// --supervise or --checkpoint-every without --checkpoint-dir,
// --resume-window without --resume, and a storage-fault plan or retry
// policy with neither directory.
//
// Flags: --days N --pairs N --seed N --seeds N --threads N
//        --checkpoint-dir D --checkpoint-every N --resume D
//        --resume-window K --io-fault-plan SPEC --io-retry SPEC
//        --supervise --stats-json F --trace-out F --serve PORT
//        --serve-linger N
#include <optional>
#include <set>
#include <sstream>

#include "bench_common.h"
#include "eval/supervisor.h"

namespace {

using namespace rrr;

// Storage-fault knobs (DESIGN.md §14): `--io-fault-plan <spec>` injects
// storage faults into every store IO (fault::IoFaultPlan::parse syntax, e.g.
// "torn=0.05,enospc=0.02,seed=7"; RRR_IO_FAULT_PLAN supplies the spec when
// the flag is absent), and `--io-retry <spec>` configures the
// transient-error retry policy (store::RetryPolicy::parse, e.g.
// "attempts=4,base_us=100"). A spec that does not parse exits 2. Returns the
// first setting that configured store IO, or an empty string when none did,
// so main() can reject one that no store IO would read.
std::string apply_io_fault_flags(const bench::Flags& flags,
                                 eval::WorldParams& params) {
  std::string applied;
  std::string source = "--io-fault-plan";
  std::string spec = flags.get_str("io-fault-plan", "");
  if (spec.empty()) {
    const char* env = std::getenv("RRR_IO_FAULT_PLAN");
    if (env != nullptr) {
      source = "RRR_IO_FAULT_PLAN";
      spec = env;
    }
  }
  if (!spec.empty()) {
    std::optional<fault::IoFaultPlan> parsed = fault::IoFaultPlan::parse(spec);
    if (!parsed) bench::reject_setting(source, spec);
    params.io_fault_plan = *parsed;
    applied = source;
  }
  std::string retry = flags.get_str("io-retry", "");
  if (!retry.empty()) {
    std::optional<store::RetryPolicy> parsed = store::RetryPolicy::parse(retry);
    if (!parsed) bench::reject_setting("--io-retry", retry);
    params.io_retry = *parsed;
    if (applied.empty()) applied = "--io-retry";
  }
  return applied;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrr;
  constexpr std::string_view kOwnFlags[] = {
      "seeds", "checkpoint-dir", "checkpoint-every", "resume",
      "resume-window", "supervise", "io-fault-plan", "io-retry"};
  const bench::Flags flags(
      argc, argv,
      {bench::kWorldFlags, bench::kOutputFlags, bench::kFeedFaultFlags,
       bench::kFanOutFlags, bench::kObsServerFlags, kOwnFlags});
  eval::WorldParams base = bench::retrospective_params(flags);
  base.days = static_cast<int>(flags.get_int("days", 14));
  // Archive mode: traceroutes accumulate; nothing is refreshed for free.
  base.recalibration_interval_windows = 0;
  base.platform.probe_death_per_day = 0.006;
  int seeds = static_cast<int>(flags.get_int("seeds", 1));

  base.checkpoint_dir = flags.get_str("checkpoint-dir", "");
  base.checkpoint_every =
      static_cast<int>(flags.get_int("checkpoint-every", 1));
  base.resume_from = flags.get_str("resume", "");
  base.resume_window = flags.get_int("resume-window", -1);
  const bool supervise = flags.get_bool("supervise");
  const std::string io_setting = apply_io_fault_flags(flags, base);
  if (base.checkpoint_dir.empty()) {
    if (supervise) {
      bench::exit_misconfigured("--supervise",
                                "needs --checkpoint-dir to recover from");
    }
    if (flags.get_bool("checkpoint-every")) {
      bench::exit_misconfigured("--checkpoint-every",
                                "needs --checkpoint-dir");
    }
    if (base.resume_from.empty() && !io_setting.empty()) {
      bench::exit_misconfigured(
          io_setting, "needs --checkpoint-dir or --resume (only store IO "
                      "reads it)");
    }
  }
  if (base.resume_from.empty() && flags.get_bool("resume-window")) {
    bench::exit_misconfigured("--resume-window", "needs --resume");
  }
  if (supervise && flags.get_int("serve", -1) >= 0) {
    bench::exit_misconfigured(
        "--supervise", "cannot be combined with --serve (a recovery "
                       "replaces the world the endpoint would follow)");
  }

  eval::print_banner(std::cout, "Figure 11",
                     "fresh vs stale archival traceroutes over time",
                     "~60% of two weeks of traceroutes remain fresh; ~4% of "
                     "fresh ones are from dead probes");

  std::vector<std::string> labels;
  for (int k = 0; k < seeds; ++k) {
    labels.push_back(
        "s" + std::to_string(bench::replicate_seed(base.seed,
                                                   std::size_t(k))));
  }
  struct Replicate {
    std::string report;
    bench::RunStats stats;
  };
  int threads = bench::fanout_threads(flags, labels.size());
  bench::ScopedObsServer obs_server(flags, std::cout);
  std::vector<Replicate> replicates = bench::fan_out<Replicate>(
      threads, labels,
      [&](std::size_t k) {
        eval::WorldParams params = base;
        params.seed = bench::replicate_seed(base.seed, k);
        // Replicates are independent worlds, so each gets its own
        // checkpoint directory under the flag's base path.
        if (!params.checkpoint_dir.empty()) {
          params.checkpoint_dir += "/" + labels[k];
        }
        if (!params.resume_from.empty()) {
          params.resume_from += "/" + labels[k];
        }
        std::ostringstream out;

        // The archive: (pair, issue day). Every pair contributes one
        // archived trace per day (scaled stand-in for the public firehose).
        struct Archived {
          tr::PairKey pair;
          TimePoint issued;
        };
        std::vector<Archived> archive;
        // Stale knowledge, keyed by the window that produced it so a
        // window re-delivered after a supervisor recovery overwrites its
        // own signals instead of appending duplicates (the re-delivery
        // contract in eval/supervisor.h).
        std::map<std::int64_t, std::vector<signals::StalenessSignal>>
            signals_by_window;
        // Flattened view: for each pair, times at which signals fired.
        std::map<tr::PairKey, std::vector<TimePoint>> signal_times;
        auto rebuild_signal_times = [&] {
          signal_times.clear();
          for (const auto& [window, sigs] : signals_by_window) {
            (void)window;
            for (const auto& s : sigs) signal_times[s.pair].push_back(s.time);
          }
        };
        auto stale_after = [&](const tr::PairKey& pair, TimePoint issued) {
          auto it = signal_times.find(pair);
          if (it == signal_times.end()) return false;
          for (TimePoint st : it->second) {
            if (st > issued) return true;
          }
          return false;
        };

        // The current incarnation: under the supervisor the World may be
        // torn down and rebuilt mid-run, so hooks resolve it per call
        // instead of capturing a reference that a recovery would dangle.
        std::optional<eval::Supervisor> supervisor;
        std::unique_ptr<eval::World> world_owner;
        auto current = [&]() -> eval::World& {
          return supervisor ? supervisor->world() : *world_owner;
        };

        eval::TableWriter table({"day", "archived", "fresh", "stale",
                                 "unknown", "fresh, dead probe"});
        int last_day = -1;  // re-delivered day boundaries are skipped
        eval::World::Hooks hooks;
        hooks.on_signals = [&](std::int64_t window, TimePoint,
                               std::vector<signals::StalenessSignal>&& sigs) {
          signals_by_window[window] = std::move(sigs);
        };
        hooks.on_day = [&](int day, TimePoint t) {
          eval::World& world = current();
          if (t < world.corpus_t0()) return;
          if (day <= last_day) return;  // already processed pre-recovery
          last_day = day;
          for (const tr::PairKey& pair : world.ground_truth().pairs()) {
            archive.push_back(Archived{pair, t});
          }
          // Classify the whole archive as of now.
          rebuild_signal_times();
          std::int64_t fresh = 0, stale = 0, unknown = 0, fresh_dead = 0;
          for (const Archived& entry : archive) {
            if (stale_after(entry.pair, entry.issued)) {
              ++stale;
              continue;
            }
            // Unknown: the engine cannot monitor every border of this pair.
            tr::Freshness freshness = world.engine().freshness(entry.pair);
            if (freshness == tr::Freshness::kUnknown) {
              ++unknown;
              continue;
            }
            ++fresh;
            if (!world.platform().probe(entry.pair.probe).active) {
              ++fresh_dead;
            }
          }
          table.add_row({std::to_string(day - params.warmup_days + 1),
                         eval::TableWriter::fmt_int(
                             static_cast<std::int64_t>(archive.size())),
                         eval::TableWriter::fmt_pct(
                             double(fresh) / double(archive.size())),
                         eval::TableWriter::fmt_pct(
                             double(stale) / double(archive.size())),
                         eval::TableWriter::fmt_pct(
                             double(unknown) / double(archive.size())),
                         eval::TableWriter::fmt_pct(
                             fresh ? double(fresh_dead) / double(fresh)
                                   : 0)});
        };

        if (supervise) {
          // Supervised: run_all under the recovery loop. No endpoint lease
          // (--supervise with --serve exits 2 above).
          supervisor.emplace(params);
          supervisor->run(hooks);
          if (!supervisor->recoveries().empty()) {
            out << "supervised: recovered "
                << supervisor->recoveries().size() << " time(s)";
            for (const eval::RecoveryEvent& event :
                 supervisor->recoveries()) {
              out << "; resume@" << event.resume_window;
            }
            out << "\n";
          }
          world_owner = supervisor->take_world();
          supervisor.reset();
          out << "archive sources: "
              << world_owner->ground_truth().pairs().size()
              << " pairs, accumulating one measurement per pair per day\n\n";
          table.print(out);
        } else {
          world_owner = std::make_unique<eval::World>(params);
          eval::World& world = *world_owner;
          // The live endpoint follows the primary replicate for the length
          // of its run; other replicates stay detached.
          std::optional<bench::WorldLease> lease;
          if (k == 0 && obs_server.active()) {
            lease.emplace(obs_server, &world);
          }
          if (!params.resume_from.empty()) {
            out << "warm start: resumed at window "
                << world.completed_windows()
                << "; day rows below cover the remainder of the run\n";
          }
          world.run_until(world.corpus_t0());
          std::size_t pairs = world.initialize_corpus();
          out << "archive sources: " << pairs << " pairs, accumulating one "
              << "measurement per pair per day\n\n";
          world.run_until(world.end(), hooks);
          table.print(out);
        }
        eval::World& world = *world_owner;
        rebuild_signal_times();

        // §6.2's request-serving estimate: a request for (probe AS+city ->
        // destination prefix) can be served when a fresh archived trace
        // exists for some pair with the same source AS/city and destination
        // block.
        std::set<std::pair<std::uint64_t, std::uint32_t>> fresh_keys;
        std::set<std::pair<std::uint64_t, std::uint32_t>> all_keys;
        for (const Archived& entry : archive) {
          const tr::Probe& probe = world.platform().probe(entry.pair.probe);
          std::uint64_t src_key =
              (std::uint64_t{probe.as} << 16) | probe.city;
          std::uint32_t dst_block = entry.pair.dst.value() >> 16;
          all_keys.insert({src_key, dst_block});
          if (!stale_after(entry.pair, entry.issued) &&
              world.engine().freshness(entry.pair) == tr::Freshness::kFresh) {
            fresh_keys.insert({src_key, dst_block});
          }
        }
        out << "\n(AS,city)->prefix demands servable by a fresh archived "
            << "trace: "
            << eval::TableWriter::fmt_pct(
                   all_keys.empty() ? 0
                                    : double(fresh_keys.size()) /
                                          double(all_keys.size()))
            << " (paper: 90.3% of UDMs; 68.6% with the feedback loop)\n";
        return Replicate{out.str(), bench::capture_stats(labels[k], world)};
      },
      std::cout);

  for (int k = 0; k < seeds; ++k) {
    std::cout << "\nseed "
              << bench::replicate_seed(base.seed, std::size_t(k)) << ":\n"
              << replicates[static_cast<std::size_t>(k)].report;
  }
  std::vector<bench::RunStats> stats;
  for (Replicate& replicate : replicates) {
    stats.push_back(std::move(replicate.stats));
  }
  bench::maybe_write_trace(flags, stats.empty() ? "" : stats[0].trace,
                           std::cout);
  bench::write_stats_json(bench::stats_json_path(flags), stats, std::cout);
  return 0;
}

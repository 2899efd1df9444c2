#include "fault/plan.h"

#include "netbase/parse.h"

namespace rrr::fault {

bool FaultPlan::enabled() const {
  bool blackout = blackout_windows > 0 &&
                  (collector_blackout_fraction > 0.0 ||
                   vp_blackout_fraction > 0.0);
  return blackout || drop_rate > 0.0 || trace_drop_rate > 0.0 ||
         duplicate_rate > 0.0 ||
         (reorder_rate > 0.0 && reorder_max_seconds > 0) ||
         corrupt_rate > 0.0;
}

std::string FaultPlan::spec() const {
  SpecWriter out;
  if (collector_blackout_fraction > 0.0) {
    out.add("collector_blackout", collector_blackout_fraction);
  }
  if (vp_blackout_fraction > 0.0) {
    out.add("vp_blackout", vp_blackout_fraction);
  }
  if (blackout_start_window != 0) {
    out.add("blackout_start", blackout_start_window);
  }
  if (blackout_windows != 0) out.add("blackout_windows", blackout_windows);
  if (session_reset_replay) out.add("reset_replay", 1);
  if (drop_rate > 0.0) out.add("drop", drop_rate);
  if (trace_drop_rate > 0.0) out.add("trace_drop", trace_drop_rate);
  if (duplicate_rate > 0.0) out.add("dup", duplicate_rate);
  if (duplicate_burst_max != 3) out.add("dup_burst", duplicate_burst_max);
  if (reorder_rate > 0.0) out.add("reorder", reorder_rate);
  if (reorder_max_seconds != 0) out.add("reorder_max", reorder_max_seconds);
  if (corrupt_rate > 0.0) out.add("corrupt", corrupt_rate);
  if (seed != 1) out.add("seed", seed);
  return out.str();
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view spec) {
  const std::optional<std::vector<SpecClause>> clauses = split_spec(spec);
  if (!clauses) return std::nullopt;
  FaultPlan plan;
  for (const auto& [key, value] : *clauses) {
    bool ok = false;
    if (key == "collector_blackout") {
      ok = parse_into(value, plan.collector_blackout_fraction, 0.0, 1.0);
    } else if (key == "vp_blackout") {
      ok = parse_into(value, plan.vp_blackout_fraction, 0.0, 1.0);
    } else if (key == "blackout_start") {
      ok = parse_into(value, plan.blackout_start_window, 0);
    } else if (key == "blackout_windows") {
      ok = parse_into(value, plan.blackout_windows, 0);
    } else if (key == "reset_replay") {
      int replay = 0;
      ok = parse_into(value, replay, 0, 1);
      plan.session_reset_replay = replay == 1;
    } else if (key == "drop") {
      ok = parse_into(value, plan.drop_rate, 0.0, 1.0);
    } else if (key == "trace_drop") {
      ok = parse_into(value, plan.trace_drop_rate, 0.0, 1.0);
    } else if (key == "dup") {
      ok = parse_into(value, plan.duplicate_rate, 0.0, 1.0);
    } else if (key == "dup_burst") {
      ok = parse_into(value, plan.duplicate_burst_max, 1);
    } else if (key == "reorder") {
      ok = parse_into(value, plan.reorder_rate, 0.0, 1.0);
    } else if (key == "reorder_max") {
      ok = parse_into(value, plan.reorder_max_seconds, 0);
    } else if (key == "corrupt") {
      ok = parse_into(value, plan.corrupt_rate, 0.0, 1.0);
    } else if (key == "seed") {
      ok = parse_into(value, plan.seed);
    }
    if (!ok) return std::nullopt;
  }
  return plan;
}

}  // namespace rrr::fault

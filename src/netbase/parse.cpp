#include "netbase/parse.h"

namespace rrr {

std::optional<std::vector<SpecClause>> split_spec(std::string_view spec) {
  std::vector<SpecClause> clauses;
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    const std::string_view clause = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view()
                                           : spec.substr(comma + 1);
    if (clause.empty()) continue;
    const std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    clauses.push_back({clause.substr(0, eq), clause.substr(eq + 1)});
  }
  return clauses;
}

}  // namespace rrr

#include "netbase/asn.h"

#include <algorithm>
#include <ostream>

namespace rrr {

std::ostream& operator<<(std::ostream& os, Asn asn) {
  return os << asn.to_string();
}

std::string to_string(const AsPath& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out += std::to_string(path[i].number());
  }
  return out;
}

bool suffix_matches(const AsPath& path, std::size_t from_index,
                    const AsPath& reference) {
  if (from_index >= path.size()) return false;
  int ref_index = index_of(reference, path[from_index]);
  if (ref_index < 0) return false;
  std::size_t path_rest = path.size() - from_index;
  std::size_t ref_rest = reference.size() - static_cast<std::size_t>(ref_index);
  if (path_rest != ref_rest) return false;
  return std::equal(path.begin() + static_cast<std::ptrdiff_t>(from_index),
                    path.end(), reference.begin() + ref_index);
}

}  // namespace rrr

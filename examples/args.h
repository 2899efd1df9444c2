// Positional arguments of the examples, held to the bench harnesses'
// contract: a malformed, out-of-range or extra argument exits with status
// 2, naming it, before anything runs.
#pragma once

#include <cstdlib>
#include <iostream>
#include <optional>

#include "netbase/parse.h"

namespace rrr::examples {

// Exits 2 when argv holds more than `max_args` arguments.
inline void limit_args(int argc, char** argv, int max_args,
                       const char* usage) {
  if (argc - 1 <= max_args) return;
  std::cerr << argv[0] << ": unexpected argument '" << argv[max_args + 1]
            << "'\nusage: " << argv[0] << " " << usage << "\n";
  std::exit(2);
}

// Argument `index` (1-based) as an int >= `lo`, or `fallback` when it is
// absent; exits 2, naming `name`, when it is anything else.
inline int int_arg(int argc, char** argv, int index, const char* name,
                   int fallback, int lo) {
  if (argc <= index) return fallback;
  std::optional<int> value = parse_number<int>(argv[index], lo);
  if (!value) {
    std::cerr << argv[0] << ": " << name << " must be an integer >= " << lo
              << ", got '" << argv[index] << "'\n";
    std::exit(2);
  }
  return *value;
}

}  // namespace rrr::examples

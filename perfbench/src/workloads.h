// The three workloads. Each builds its own system under test from the
// repository's public headers, measures for `seconds`, checks the outputs
// and returns every metric it can fill (see README.md for the table).
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string work_dir;  ///< scratch space, removed when the run ends
  std::string out_dir;   ///< kept artifacts (span logs, result records)
};

Result run_two_node(const RunArgs& args);
Result run_fanin(const RunArgs& args);
Result run_replay(const RunArgs& args);

}  // namespace perfbench

// aqua_perfbench — the repository benchmark program (see README.md).
//
//   aqua_perfbench --workload point_anchored|scan_batch --seed N
//                  --seconds S --trace 0|1 [--scale full|tiny]
//                  [--git-sha SHA]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "aqua_perfbench: %s\nusage: aqua_perfbench --workload "
               "point_anchored|scan_batch --seed N --seconds S --trace 0|1 "
               "[--scale full|tiny] [--git-sha SHA]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  aqua::perfbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") {
        return Usage("--scale takes full or tiny");
      }
      opts.scale = value == "tiny" ? aqua::perfbench::Scale::kTiny
                                   : aqua::perfbench::Scale::kFull;
    } else if (flag == "--git-sha") {
      opts.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.workload.empty()) return Usage("--workload is required");
  return aqua::perfbench::RunBenchmark(opts);
}

// perfbench — the repository benchmark. One invocation runs one workload in
// a closed loop for --seconds and prints every metric by name with its unit,
// then, as its last line, the JSON verdict:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// (end-to-end metrics, or per-layer metrics with --trace 1). Exits non-zero
// when a correctness gate fails or the arguments are bad.
//
//   perfbench --workload hpc_census|spark_suite|blob_ckpt --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload hpc_census|spark_suite|blob_ckpt "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing value after an option");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else {
      return usage("unknown option");
    }
    if (end != nullptr && *end != '\0') return usage("malformed number");
  }
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");

  opts.meta = bsc::bench::collect_run_meta("perfbench");
  perfbench::Report rep;
  if (opts.workload == "hpc_census") {
    rep = perfbench::run_hpc_census(opts);
  } else if (opts.workload == "spark_suite") {
    rep = perfbench::run_spark_suite(opts);
  } else if (opts.workload == "blob_ckpt") {
    rep = perfbench::run_blob_ckpt(opts);
  } else {
    return usage("unknown workload");
  }
  return perfbench::emit(opts, rep);
}

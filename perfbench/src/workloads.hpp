// The three benchmark workloads. Each runs its closed loop for
// `opts.seconds`, checks its correctness gates, and fills a Report.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// BLAST, MOM, EH/MPI and RT through MPI-IO -> TracingFs -> BlobFs, 1 rank;
/// baseline pass on pfs-strict.
Report run_hpc_census(const Options& opts);

/// Sort, Grep, DT, CC and Tokenizer on BlobFs with a 1-thread pool;
/// baseline pass on hdfs.
Report run_spark_suite(const Options& opts);

/// Coordinated native blob checkpoint/restart from min(2, nproc / 2) client
/// threads.
Report run_blob_ckpt(const Options& opts);

}  // namespace perfbench

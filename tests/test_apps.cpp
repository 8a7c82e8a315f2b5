// Tests for the workload models: each application reproduces its Table I
// volumes and the call-mix regime the paper reports.
#include <gtest/gtest.h>

#include "adapter/blobfs.hpp"
#include "apps/app_spec.hpp"
#include "apps/hpc_apps.hpp"
#include "apps/spark_apps.hpp"
#include "common/rng.hpp"
#include "hdfs/hdfs.hpp"
#include "pfs/pfs.hpp"
#include "trace/report.hpp"
#include "vfs/helpers.hpp"

namespace bsc::apps {
namespace {

constexpr double kTol = 0.03;  // integer-division slack on volume targets

void expect_near_volume(std::uint64_t actual, std::uint64_t target, const char* what) {
  EXPECT_GT(static_cast<double>(actual), static_cast<double>(target) * (1.0 - kTol)) << what;
  EXPECT_LT(static_cast<double>(actual), static_cast<double>(target) * (1.0 + kTol)) << what;
}

HpcRunResult run_on_pfs(HpcAppKind kind, bool with_prep = true) {
  sim::Cluster cluster;
  pfs::LustreLikeFs fs(cluster);
  HpcRunOptions opts;
  opts.ranks = 8;  // smaller rank count for unit-test speed; volumes are fixed
  opts.with_prep_script = with_prep;
  return run_hpc_app(kind, fs, cluster, opts);
}

TEST(HpcApps, BlastVolumesAndProfile) {
  const auto r = run_on_pfs(HpcAppKind::blast);
  ASSERT_TRUE(r.ok) << r.error;
  const auto spec = blast_spec();
  expect_near_volume(r.census.census.bytes_read, spec.read_total, "reads");
  expect_near_volume(r.census.census.bytes_written, spec.write_total, "writes");
  // Call mix: reads dominate overwhelmingly (Fig 1 BLAST bar).
  EXPECT_GT(r.census.census.category_pct(trace::Category::file_read), 90.0);
  EXPECT_EQ(r.census.census.category_count(trace::Category::directory), 0u);
  EXPECT_GT(r.sim_time, 0);
}

TEST(HpcApps, MomVolumes) {
  const auto r = run_on_pfs(HpcAppKind::mom);
  ASSERT_TRUE(r.ok) << r.error;
  const auto spec = mom_spec();
  expect_near_volume(r.census.census.bytes_read, spec.read_total, "reads");
  expect_near_volume(r.census.census.bytes_written, spec.write_total, "writes");
  EXPECT_EQ(r.census.census.category_count(trace::Category::directory), 0u);
  const double rw = static_cast<double>(r.census.census.bytes_read) /
                    static_cast<double>(r.census.census.bytes_written);
  EXPECT_NEAR(rw, 6.09, 0.5);  // Table I: 6.01
}

TEST(HpcApps, EcohamWithPrepShowsDirAndOtherCalls) {
  const auto r = run_on_pfs(HpcAppKind::ecoham, /*with_prep=*/true);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.census.name, "EH");
  // The run scripts produce directory listings and xattr reads (Fig 1 EH).
  EXPECT_GT(r.census.census.category_count(trace::Category::directory), 0u);
  EXPECT_GT(r.census.census.count(trace::OpKind::getxattr), 0u);
  // Still write-dominated overall.
  EXPECT_GT(r.census.census.category_pct(trace::Category::file_write), 80.0);
  const auto spec = ecoham_spec();
  expect_near_volume(r.census.census.bytes_written, spec.write_total, "writes");
}

TEST(HpcApps, EcohamMpiOnlyHasPureFileIo) {
  const auto r = run_on_pfs(HpcAppKind::ecoham, /*with_prep=*/false);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.census.name, "EH/MPI");
  // Prep offline: only reads and writes remain (plus open/close/sync).
  EXPECT_EQ(r.census.census.category_count(trace::Category::directory), 0u);
  EXPECT_EQ(r.census.census.count(trace::OpKind::getxattr), 0u);
  EXPECT_EQ(r.census.census.count(trace::OpKind::stat), 0u);
}

TEST(HpcApps, RayTracingBalanced) {
  const auto r = run_on_pfs(HpcAppKind::raytracing);
  ASSERT_TRUE(r.ok) << r.error;
  const auto spec = raytracing_spec();
  expect_near_volume(r.census.census.bytes_read, spec.read_total, "reads");
  expect_near_volume(r.census.census.bytes_written, spec.write_total, "writes");
  const double rw = static_cast<double>(r.census.census.bytes_read) /
                    static_cast<double>(r.census.census.bytes_written);
  EXPECT_NEAR(rw, 0.94, 0.1);  // Table I: 0.94 -> Balanced
  EXPECT_EQ(trace::classify_profile(rw), "Balanced");
}

TEST(HpcApps, StagedInputAndWrittenOutputArePayloadStreams) {
  // Staging and the write loops generate each call's bytes into one reused
  // buffer; a staged RT frame (two 1 MiB-bounded staging calls) and a frame
  // the run wrote (2 KiB calls) must read back as their payload streams.
  sim::Cluster cluster;
  pfs::LustreLikeFs fs(cluster);
  HpcRunOptions opts;
  opts.ranks = 1;
  const auto r = run_hpc_app(HpcAppKind::raytracing, fs, cluster, opts);
  ASSERT_TRUE(r.ok) << r.error;
  const vfs::IoCtx ctx{nullptr, 500, 500};
  const auto spec = raytracing_spec();
  constexpr std::uint32_t kFrames = 48;  // stage_raytracing's frame count
  const auto in = vfs::read_file(fs, ctx, "/data/rt/frames/frame-0005.raw");
  ASSERT_TRUE(in.ok());
  ASSERT_EQ(in.value().size(), spec.read_total / kFrames);
  ASSERT_GT(in.value().size(), 1u << 20);
  EXPECT_TRUE(check_payload(opts.seed ^ 5, 0, as_view(in.value())));
  const auto out = vfs::read_file(fs, ctx, "/out/rt/frame-0005.out");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), spec.write_total / kFrames);
  EXPECT_TRUE(check_payload(opts.seed ^ (5 * 7), 0, as_view(out.value())));
}

TEST(HpcApps, RunsUnmodifiedOnBlobFs) {
  // The paper's §IV-C conclusion: HPC apps are suited to run unmodified
  // atop blob storage. Same workload, blob backend, same census shape.
  sim::Cluster cluster;
  blob::BlobStore store(cluster);
  adapter::BlobFs fs(store);
  HpcRunOptions opts;
  opts.ranks = 8;
  const auto r = run_hpc_app(HpcAppKind::blast, fs, cluster, opts);
  ASSERT_TRUE(r.ok) << r.error;
  expect_near_volume(r.census.census.bytes_read, blast_spec().read_total, "reads");
  EXPECT_GT(r.census.census.category_pct(trace::Category::file_read), 90.0);
}

TEST(SparkApps, SortSingleVolumes) {
  sim::Cluster cluster;
  hdfs::HdfsLikeFs fs(cluster);
  ThreadPool pool(8);
  const auto r = run_spark_single(SparkAppKind::sort, fs, cluster, pool);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.per_app.size(), 1u);
  const auto& c = r.per_app[0].census;
  const auto spec = sort_spec();
  // Data volumes dominate; jar upload + event log add a small overhead.
  EXPECT_GT(c.bytes_read, spec.input_total);
  EXPECT_LT(c.bytes_read, spec.input_total * 11 / 10);
  EXPECT_GT(c.bytes_written, spec.output_total);
  EXPECT_LT(c.bytes_written, spec.output_total * 11 / 10);
  // Fig 2: file reads and writes dominate; >98% of calls are file ops.
  const double file_ops = c.category_pct(trace::Category::file_read) +
                          c.category_pct(trace::Category::file_write);
  EXPECT_GT(file_ops, 90.0);
  EXPECT_LT(c.category_pct(trace::Category::directory), 2.0);
}

TEST(SparkApps, GrepIsReadIntensive) {
  sim::Cluster cluster;
  hdfs::HdfsLikeFs fs(cluster);
  ThreadPool pool(8);
  const auto r = run_spark_single(SparkAppKind::grep, fs, cluster, pool);
  ASSERT_TRUE(r.ok) << r.error;
  const auto& c = r.per_app[0].census;
  const double rw =
      static_cast<double>(c.bytes_read) / static_cast<double>(c.bytes_written);
  // Table I: 64.52 (jar/event-log writes pull it down slightly).
  EXPECT_GT(rw, 30.0);
  EXPECT_EQ(trace::classify_profile(rw), "Read-intensive");
}

TEST(SparkApps, SingleAppDirBreakdownConsistent) {
  sim::Cluster cluster;
  hdfs::HdfsLikeFs fs(cluster);
  ThreadPool pool(8);
  const auto r = run_spark_single(SparkAppKind::connected_components, fs, cluster, pool);
  ASSERT_TRUE(r.ok) << r.error;
  // One app: 3 session + 8 app = 11 mkdir/rmdir; one input listing; no
  // other listings.
  EXPECT_EQ(r.dir_ops.mkdir, 11u);
  EXPECT_EQ(r.dir_ops.rmdir, 11u);
  EXPECT_EQ(r.dir_ops.opendir_input, 1u);
  EXPECT_EQ(r.dir_ops.opendir_other, 0u);
}

TEST(SparkApps, IterativeAppReadsInputPerPass) {
  sim::Cluster cluster;
  hdfs::HdfsLikeFs fs(cluster);
  ThreadPool pool(8);
  const auto r = run_spark_single(SparkAppKind::decision_tree, fs, cluster, pool);
  ASSERT_TRUE(r.ok) << r.error;
  const auto spec = decision_tree_spec();
  // 10 passes over a 5.91 MB dataset: total reads ~59.1 MB.
  EXPECT_GT(r.per_app[0].census.bytes_read, spec.input_total);
  EXPECT_LT(r.per_app[0].census.bytes_read, spec.input_total * 11 / 10);
  // Still exactly ONE input listing (Spark caches the file list).
  EXPECT_EQ(r.dir_ops.opendir_input, 1u);
}

TEST(HpcAppNames, Stable) {
  EXPECT_EQ(hpc_app_name(HpcAppKind::blast, true), "BLAST");
  EXPECT_EQ(hpc_app_name(HpcAppKind::ecoham, true), "EH");
  EXPECT_EQ(hpc_app_name(HpcAppKind::ecoham, false), "EH/MPI");
  EXPECT_EQ(spark_app_name(SparkAppKind::tokenizer), "Tokenizer");
}

}  // namespace
}  // namespace bsc::apps

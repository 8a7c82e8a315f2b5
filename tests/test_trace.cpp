// Tests for the storage-call tracing layer: taxonomy, recorder, decorator,
// report rendering.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pfs/pfs.hpp"
#include "trace/report.hpp"
#include "trace/tracing_fs.hpp"
#include "vfs/helpers.hpp"

namespace bsc::trace {
namespace {

TEST(Taxonomy, ClassificationIsTotalAndMatchesPaper) {
  for (std::size_t i = 0; i < kOpKindCount; ++i) {
    const auto c = classify(static_cast<OpKind>(i));
    EXPECT_LT(static_cast<std::size_t>(c), kCategoryCount);
  }
  EXPECT_EQ(classify(OpKind::read), Category::file_read);
  EXPECT_EQ(classify(OpKind::write), Category::file_write);
  EXPECT_EQ(classify(OpKind::mkdir), Category::directory);
  EXPECT_EQ(classify(OpKind::rmdir), Category::directory);
  EXPECT_EQ(classify(OpKind::readdir), Category::directory);
  EXPECT_EQ(classify(OpKind::open), Category::other);
  EXPECT_EQ(classify(OpKind::getxattr), Category::other);
  EXPECT_EQ(classify(OpKind::stat), Category::other);
}

TEST(Taxonomy, NamesAreStable) {
  for (std::size_t i = 0; i < kOpKindCount; ++i) {
    EXPECT_NE(to_string(static_cast<OpKind>(i)), "?");
  }
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    EXPECT_NE(to_string(static_cast<Category>(i)), "?");
  }
}

TEST(Recorder, CountsAndBytes) {
  TraceRecorder rec;
  rec.record(OpKind::read, 100, 5, true);
  rec.record(OpKind::read, 200, 7, true);
  rec.record(OpKind::write, 50, 3, true);
  rec.record(OpKind::mkdir, 0, 1, false);
  const Census c = rec.census();
  EXPECT_EQ(c.count(OpKind::read), 2u);
  EXPECT_EQ(c.count(OpKind::write), 1u);
  EXPECT_EQ(c.count(OpKind::mkdir), 1u);
  EXPECT_EQ(c.bytes_read, 300u);
  EXPECT_EQ(c.bytes_written, 50u);
  EXPECT_EQ(c.total_calls(), 4u);
  EXPECT_EQ(rec.failures(), 1u);
  EXPECT_DOUBLE_EQ(c.category_pct(Category::file_read), 50.0);
  EXPECT_DOUBLE_EQ(c.category_pct(Category::directory), 25.0);
}

TEST(Recorder, PercentagesSumTo100) {
  TraceRecorder rec;
  for (int i = 0; i < 37; ++i) rec.record(OpKind::read, 1, 1, true);
  for (int i = 0; i < 13; ++i) rec.record(OpKind::write, 1, 1, true);
  for (int i = 0; i < 7; ++i) rec.record(OpKind::stat, 0, 1, true);
  for (int i = 0; i < 3; ++i) rec.record(OpKind::readdir, 0, 1, true);
  const Census c = rec.census();
  double total = 0;
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    total += c.category_pct(static_cast<Category>(i));
  }
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(Recorder, CensusAdditionAggregates) {
  TraceRecorder r1;
  TraceRecorder r2;
  r1.record(OpKind::read, 10, 1, true);
  r2.record(OpKind::write, 20, 1, true);
  Census sum = r1.census();
  sum += r2.census();
  EXPECT_EQ(sum.total_calls(), 2u);
  EXPECT_EQ(sum.bytes_read, 10u);
  EXPECT_EQ(sum.bytes_written, 20u);
}

TEST(Recorder, ResetClears) {
  TraceRecorder rec;
  rec.record(OpKind::read, 10, 1, true);
  rec.reset();
  EXPECT_EQ(rec.census().total_calls(), 0u);
  EXPECT_EQ(rec.census().bytes_read, 0u);
}

TEST(TracingFsTest, ForwardsAndRecordsEveryCall) {
  sim::Cluster cluster;
  pfs::LustreLikeFs inner(cluster);
  TraceRecorder rec;
  TracingFs fs(inner, rec);
  sim::SimAgent agent;
  vfs::IoCtx ctx{&agent, 100, 100};

  ASSERT_TRUE(fs.mkdir(ctx, "/d").ok());
  auto h = fs.open(ctx, "/d/f", vfs::OpenFlags::rw());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs.write(ctx, h.value(), 0, as_view(to_bytes("hello"))).ok());
  auto r = fs.read(ctx, h.value(), 0, 5);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(fs.sync(ctx, h.value()).ok());
  ASSERT_TRUE(fs.close(ctx, h.value()).ok());
  ASSERT_TRUE(fs.stat(ctx, "/d/f").ok());
  ASSERT_TRUE(fs.setxattr(ctx, "/d/f", "user.k", "v").ok());
  ASSERT_TRUE(fs.getxattr(ctx, "/d/f", "user.k").ok());
  ASSERT_TRUE(fs.readdir(ctx, "/d").ok());
  ASSERT_TRUE(fs.rename(ctx, "/d/f", "/d/g").ok());
  ASSERT_TRUE(fs.chmod(ctx, "/d/g", 0600).ok());
  ASSERT_TRUE(fs.truncate(ctx, "/d/g", 1).ok());
  ASSERT_TRUE(fs.unlink(ctx, "/d/g").ok());
  ASSERT_TRUE(fs.rmdir(ctx, "/d").ok());

  const Census c = rec.census();
  for (OpKind k : {OpKind::open, OpKind::close, OpKind::read, OpKind::write, OpKind::sync,
                   OpKind::truncate, OpKind::unlink, OpKind::mkdir, OpKind::rmdir,
                   OpKind::readdir, OpKind::stat, OpKind::rename, OpKind::chmod,
                   OpKind::getxattr, OpKind::setxattr}) {
    EXPECT_EQ(c.count(k), 1u) << to_string(k);
  }
  EXPECT_EQ(c.bytes_read, 5u);
  EXPECT_EQ(c.bytes_written, 5u);
  EXPECT_EQ(rec.failures(), 0u);
  EXPECT_GT(rec.latency(Category::file_write).count(), 0u);
  EXPECT_EQ(fs.backend_name(), "traced:pfs-strict");
}

TEST(TracingFsTest, RecordsFailures) {
  sim::Cluster cluster;
  pfs::LustreLikeFs inner(cluster);
  TraceRecorder rec;
  TracingFs fs(inner, rec);
  sim::SimAgent agent;
  vfs::IoCtx ctx{&agent, 100, 100};
  EXPECT_FALSE(fs.stat(ctx, "/missing").ok());
  EXPECT_FALSE(fs.unlink(ctx, "/missing").ok());
  EXPECT_EQ(rec.failures(), 2u);
}

TEST(Report, ProfileClassification) {
  EXPECT_EQ(classify_profile(2164.0), "Read-intensive");
  EXPECT_EQ(classify_profile(6.01), "Read-intensive");
  EXPECT_EQ(classify_profile(0.042), "Write-intensive");
  EXPECT_EQ(classify_profile(0.94), "Balanced");
  EXPECT_EQ(classify_profile(1.0), "Balanced");
}

TEST(Report, RatioFormatting) {
  EXPECT_EQ(format_ratio(2164.0), "2.2 x 10^3");
  EXPECT_EQ(format_ratio(0.042), "4.2 x 10^-2");
  EXPECT_EQ(format_ratio(6.01), "6.01");
  EXPECT_EQ(format_ratio(0.94), "0.94");
}

TEST(Report, Table1ContainsAllApps) {
  std::vector<AppCensus> apps(2);
  apps[0].name = "BLAST";
  apps[0].platform = "HPC / MPI";
  apps[0].usage = "Protein docking";
  apps[0].census.bytes_read = 27ULL << 30;
  apps[0].census.bytes_written = 12ULL << 20;
  apps[1].name = "Tokenizer";
  apps[1].platform = "Cloud / Spark";
  apps[1].usage = "Text Processing";
  apps[1].census.bytes_read = 55ULL << 30;
  apps[1].census.bytes_written = 235ULL << 30;
  const std::string t = render_table1(apps);
  EXPECT_NE(t.find("BLAST"), std::string::npos);
  EXPECT_NE(t.find("Tokenizer"), std::string::npos);
  EXPECT_NE(t.find("Read-intensive"), std::string::npos);
  EXPECT_NE(t.find("Write-intensive"), std::string::npos);
}

TEST(Report, Table2Renders) {
  DirOpBreakdown ops{.mkdir = 43, .rmdir = 43, .opendir_input = 5, .opendir_other = 0};
  const std::string t = render_table2(ops);
  EXPECT_NE(t.find("43"), std::string::npos);
  EXPECT_NE(t.find("Input data directory"), std::string::npos);
}

}  // namespace
}  // namespace bsc::trace

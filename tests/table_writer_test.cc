#include "src/util/table_writer.h"

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "src/util/stopwatch.h"

namespace triclust {
namespace {

TEST(TableWriterTest, PrintsAlignedTable) {
  TableWriter table("Demo");
  table.SetHeader({"method", "acc"});
  table.AddRow({"tri-clustering", "81.87"});
  table.AddRow({"svm", "89.35"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("tri-clustering"), std::string::npos);
  EXPECT_NE(out.find("89.35"), std::string::npos);
  // Columns align: both data lines start with "| " and the header padding
  // makes every row the same length.
  std::istringstream lines(out);
  std::string line;
  size_t row_len = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("| ", 0) == 0) {
      if (row_len == 0) row_len = line.size();
      EXPECT_EQ(line.size(), row_len) << line;
    }
  }
  EXPECT_GT(row_len, 0u);
}

TEST(TableWriterTest, NumFormatsAndHandlesNan) {
  EXPECT_EQ(TableWriter::Num(1.23456), "1.23");
  EXPECT_EQ(TableWriter::Num(1.23456, 4), "1.2346");
  EXPECT_EQ(TableWriter::Num(std::nan("")), "-");
  EXPECT_EQ(TableWriter::Num(-0.5, 1), "-0.5");
}

TEST(TableWriterTest, RowCountTracked) {
  TableWriter table("T");
  table.SetHeader({"x"});
  EXPECT_EQ(table.num_rows(), 0u);
  table.AddRow({"1"});
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(TableWriterDeathTest, RowArityMustMatchHeader) {
  TableWriter table("T");
  table.SetHeader({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "check failed");
}

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch watch;
  const double t1 = watch.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  const double t2 = watch.ElapsedSeconds();
  EXPECT_GE(t2, t1);
  EXPECT_NEAR(watch.ElapsedMillis(), watch.ElapsedSeconds() * 1e3,
              watch.ElapsedSeconds() * 1e3 * 0.5 + 1.0);
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), t2 + 1.0);
}

}  // namespace
}  // namespace triclust

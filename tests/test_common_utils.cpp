#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "common/table.h"
#include "common/timer.h"
#include "common/types.h"

using namespace dgflow;

TEST(PowInt, SmallExponents)
{
  EXPECT_EQ(pow_int(2, 0), 1u);
  EXPECT_EQ(pow_int(2, 10), 1024u);
  EXPECT_EQ(pow_int(5, 3), 125u);
  EXPECT_EQ(pow_int(1, 100), 1u);
}

TEST(TableTest, FormatsRowsAndHeaders)
{
  Table t({"name", "value"});
  t.add_row("alpha", 1.5);
  t.add_row("beta", 42);
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(TableTest, ScientificNotationMatchesPaperStyle)
{
  EXPECT_EQ(Table::sci(3.5e5), "3.5e5");
  EXPECT_EQ(Table::sci(1.8e5), "1.8e5");
  EXPECT_EQ(Table::sci(2.0e6), "2.0e6");
  EXPECT_EQ(Table::sci(4.4e-5), "4.4e-5");
}

TEST(TimerTest, MeasuresElapsedTime)
{
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  t.restart();
  EXPECT_LT(t.seconds(), 0.01);
}


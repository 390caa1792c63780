#include <gtest/gtest.h>

#include <sstream>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace dimmer::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), RequireError);
}

TEST(Table, RejectsEmptyHeader) { EXPECT_THROW(Table({}), RequireError); }

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::pct(0.987, 1), "98.7%");
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--key=value", "--n=42"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get("key", ""), "value");
  EXPECT_EQ(cli.get_int("n", 0), 42);
}

TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--key", "value"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get("key", ""), "value");
}

TEST(Cli, BooleanFlagWithoutValue) {
  const char* argv[] = {"prog", "--verbose", "--x=1"};
  Cli cli(3, argv);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "file1", "--k=v", "file2"};
  Cli cli(4, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "file1");
  EXPECT_EQ(cli.positional()[1], "file2");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(cli.get_bool("missing", false));
}

TEST(Cli, MalformedNumbersThrow) {
  const char* argv[] = {
      "prog", "--n=abc", "--f=1.2.3",
      // Empty, leading-space and out-of-range integers.
      "--empty=", "--lead= 7", "--huge=99999999999999999999",
      // Empty and non-finite doubles.
      "--x=", "--nan=nan", "--inf=1e999", "--ninf=-inf"};
  Cli cli(10, argv);
  EXPECT_THROW(cli.get_int("n", 0), RequireError);
  EXPECT_THROW(cli.get_double("f", 0.0), RequireError);
  EXPECT_THROW(cli.get_int("empty", 0), RequireError);
  EXPECT_THROW(cli.get_int("lead", 0), RequireError);
  EXPECT_THROW(cli.get_int("huge", 0), RequireError);
  EXPECT_THROW(cli.get_double("x", 0.0), RequireError);
  EXPECT_THROW(cli.get_double("nan", 0.0), RequireError);
  EXPECT_THROW(cli.get_double("inf", 0.0), RequireError);
  EXPECT_THROW(cli.get_double("ninf", 0.0), RequireError);
}

TEST(Cli, BooleanVariants) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=off"};
  Cli cli(5, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

}  // namespace
}  // namespace dimmer::util

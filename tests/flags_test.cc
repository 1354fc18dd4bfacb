#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/logging.h"

namespace mamdr {
namespace {

FlagParser MustParse(std::vector<const char*> argv) {
  auto result = FlagParser::Parse(static_cast<int>(argv.size()), argv.data());
  MAMDR_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(FlagsTest, EqualsSyntax) {
  auto flags = MustParse({"prog", "--epochs=12", "--model=STAR"});
  EXPECT_EQ(flags.GetInt("epochs", 0), 12);
  EXPECT_EQ(flags.GetString("model", ""), "STAR");
}

TEST(FlagsTest, SpaceSyntax) {
  auto flags = MustParse({"prog", "--inner-lr", "0.01", "--k", "5"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("inner-lr", 0.0), 0.01);
  EXPECT_EQ(flags.GetInt("k", 0), 5);
}

TEST(FlagsTest, BareBooleanFlag) {
  auto flags = MustParse({"prog", "--stats", "--epochs", "3"});
  EXPECT_TRUE(flags.GetBool("stats", false));
  EXPECT_EQ(flags.GetInt("epochs", 0), 3);
}

TEST(FlagsTest, BoolValueVariants) {
  auto flags =
      MustParse({"prog", "--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  auto flags = MustParse({"prog"});
  EXPECT_EQ(flags.GetInt("epochs", 10), 10);
  EXPECT_EQ(flags.GetString("model", "MLP"), "MLP");
  EXPECT_FALSE(flags.Has("anything"));
}

TEST(FlagsTest, PositionalArgumentsRejected) {
  const char* argv[] = {"prog", "oops"};
  auto result = FlagParser::Parse(2, argv);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, UnrecognizedTracksUnqueried) {
  auto flags = MustParse({"prog", "--known=1", "--typo=2"});
  EXPECT_EQ(flags.GetInt("known", 0), 1);
  const auto unknown = flags.Unrecognized();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(FlagsTest, ProgramName) {
  auto flags = MustParse({"mamdr_run"});
  EXPECT_EQ(flags.program(), "mamdr_run");
}

TEST(FlagsTest, GetIntCheckedParsesAndRejects) {
  auto flags = MustParse({"prog", "--good=42", "--neg=-7", "--bad=abc",
                          "--partial=3x", "--empty="});
  auto good = flags.GetIntChecked("good", 0);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  auto neg = flags.GetIntChecked("neg", 0);
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg.value(), -7);
  EXPECT_EQ(flags.GetIntChecked("absent", 9).value(), 9);
  EXPECT_EQ(flags.GetIntChecked("bad", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(flags.GetIntChecked("partial", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(flags.GetIntChecked("empty", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagsTest, GetDoubleParsesWholeNumbers) {
  auto flags = MustParse({"prog", "--lr=1e-3", "--neg=-2.5", "--int=4"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("neg", 0.0), -2.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("int", 0.0), 4.0);
  EXPECT_DOUBLE_EQ(flags.GetDouble("absent", 0.5), 0.5);
}

// A malformed numeric value must not become 0 (or a partial parse): the
// binary exits 2 and names the flag.
TEST(FlagsDeathTest, GetIntExitsOnMalformedValue) {
  auto flags = MustParse({"prog", "--epochs", "abc", "--k=3x"});
  EXPECT_EXIT(flags.GetInt("epochs", 10), ::testing::ExitedWithCode(2),
              "--epochs: 'abc' is not an integer");
  EXPECT_EXIT(flags.GetInt("k", 5), ::testing::ExitedWithCode(2),
              "--k: '3x' is not an integer");
}

TEST(FlagsDeathTest, GetDoubleExitsOnMalformedValue) {
  auto flags = MustParse({"prog", "--inner-lr=0.1x", "--scale="});
  EXPECT_EXIT(flags.GetDouble("inner-lr", 1e-3), ::testing::ExitedWithCode(2),
              "--inner-lr: '0.1x' is not a number");
  EXPECT_EXIT(flags.GetDouble("scale", 1.0), ::testing::ExitedWithCode(2),
              "--scale: '' is not a number");
}

TEST(FlagsTest, ApplyGlobalFlagsRejectsBadKernelThreads) {
  {
    auto flags = MustParse({"prog", "--kernel-threads=-2"});
    const Status s = ApplyGlobalFlags(flags);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  {
    auto flags = MustParse({"prog", "--kernel-threads=garbage"});
    const Status s = ApplyGlobalFlags(flags);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  {
    auto flags = MustParse({"prog", "--kernel_threads=oops"});
    const Status s = ApplyGlobalFlags(flags);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace mamdr

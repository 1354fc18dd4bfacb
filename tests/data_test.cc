#include <ostream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "data/batch.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace mamdr {
namespace data {
namespace {

TEST(DatasetTest, AddDomainRejectsDuplicates) {
  MultiDomainDataset ds("x", 10, 10);
  DomainData d;
  d.name = "a";
  d.train.push_back({0, 0, 1.0f});
  d.test.push_back({0, 0, 0.0f});
  EXPECT_TRUE(ds.AddDomain(d).ok());
  EXPECT_EQ(ds.AddDomain(d).code(), StatusCode::kAlreadyExists);
}

TEST(DatasetTest, ValidateCatchesBadIds) {
  MultiDomainDataset ds("x", 5, 5);
  DomainData d;
  d.name = "a";
  d.train.push_back({7, 0, 1.0f});  // user id out of range
  d.test.push_back({0, 0, 0.0f});
  ASSERT_TRUE(ds.AddDomain(std::move(d)).ok());
  EXPECT_EQ(ds.Validate().code(), StatusCode::kOutOfRange);
}

TEST(DatasetTest, ValidateCatchesBadLabels) {
  MultiDomainDataset ds("x", 5, 5);
  DomainData d;
  d.name = "a";
  d.train.push_back({0, 0, 0.5f});
  d.test.push_back({0, 0, 0.0f});
  ASSERT_TRUE(ds.AddDomain(std::move(d)).ok());
  EXPECT_EQ(ds.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetTest, ValidateRequiresNonEmptySplits) {
  MultiDomainDataset ds("x", 5, 5);
  DomainData d;
  d.name = "a";
  d.train.push_back({0, 0, 1.0f});  // no test data
  ASSERT_TRUE(ds.AddDomain(std::move(d)).ok());
  EXPECT_EQ(ds.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(GenerateTest, RejectsInvalidConfigs) {
  SyntheticConfig c;
  EXPECT_FALSE(Generate(c).ok());  // no domains
  c.domains.push_back({"d", 100, 0.3, 0.5});
  c.train_frac = 0.9;
  c.val_frac = 0.2;  // fractions exceed 1
  EXPECT_FALSE(Generate(c).ok());
  c.train_frac = 0.6;
  c.val_frac = 0.2;
  c.domains[0].ctr_ratio = 0.0;  // invalid ratio
  EXPECT_FALSE(Generate(c).ok());
  c.domains[0].ctr_ratio = 0.3;
  c.domains[0].num_positives = 0;  // no positives
  EXPECT_FALSE(Generate(c).ok());
}

TEST(GenerateTest, ProducesValidDataset) {
  auto ds = mamdr::testing::TinyDataset();
  EXPECT_TRUE(ds.Validate().ok());
  EXPECT_EQ(ds.num_domains(), 3);
}

TEST(GenerateTest, DeterministicForSameSeed) {
  auto a = mamdr::testing::TinyDataset(3, 120, 42);
  auto b = mamdr::testing::TinyDataset(3, 120, 42);
  ASSERT_EQ(a.domain(0).train.size(), b.domain(0).train.size());
  for (size_t i = 0; i < a.domain(0).train.size(); ++i) {
    EXPECT_EQ(a.domain(0).train[i].user, b.domain(0).train[i].user);
    EXPECT_EQ(a.domain(0).train[i].item, b.domain(0).train[i].item);
    EXPECT_EQ(a.domain(0).train[i].label, b.domain(0).train[i].label);
  }
}

TEST(GenerateTest, DifferentSeedsDiffer) {
  auto a = mamdr::testing::TinyDataset(3, 120, 1);
  auto b = mamdr::testing::TinyDataset(3, 120, 2);
  bool any_diff = a.domain(0).train.size() != b.domain(0).train.size();
  if (!any_diff) {
    for (size_t i = 0; i < a.domain(0).train.size(); ++i) {
      if (a.domain(0).train[i].user != b.domain(0).train[i].user) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(GenerateTest, CtrRatioApproximatelyRespected) {
  auto ds = mamdr::testing::TinyDataset(3, 300, 5);
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    const double requested = 0.25 + 0.05 * static_cast<double>(d);
    EXPECT_NEAR(ds.domain(d).ctr_ratio, requested, 0.05) << "domain " << d;
  }
}

TEST(GenerateTest, SplitsAreStratified) {
  auto ds = mamdr::testing::TinyDataset(3, 200, 3);
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    for (const auto* split :
         {&ds.domain(d).train, &ds.domain(d).val, &ds.domain(d).test}) {
      int pos = 0, neg = 0;
      for (const auto& it : *split) (it.label > 0.5f ? pos : neg)++;
      EXPECT_GT(pos, 0) << "domain " << d;
      EXPECT_GT(neg, 0) << "domain " << d;
    }
  }
}

TEST(GenerateTest, SplitFractionsRoughlyHonored) {
  auto ds = mamdr::testing::TinyDataset(2, 400, 9);
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    const double total = static_cast<double>(ds.domain(d).TotalSamples());
    EXPECT_NEAR(ds.domain(d).train.size() / total, 0.6, 0.05);
    EXPECT_NEAR(ds.domain(d).val.size() / total, 0.2, 0.05);
    EXPECT_NEAR(ds.domain(d).test.size() / total, 0.2, 0.05);
  }
}

TEST(GenerateTest, NoDuplicatePositivesWithinDomain) {
  auto ds = mamdr::testing::TinyDataset(1, 200, 21);
  std::set<std::pair<int64_t, int64_t>> seen;
  auto check = [&](const std::vector<Interaction>& split) {
    for (const auto& it : split) {
      if (it.label > 0.5f) {
        EXPECT_TRUE(seen.insert({it.user, it.item}).second)
            << "duplicate positive (" << it.user << "," << it.item << ")";
      }
    }
  };
  check(ds.domain(0).train);
  check(ds.domain(0).val);
  check(ds.domain(0).test);
}

// Named benchmark configs mirror the paper's layouts.
struct NamedConfigCase {
  std::string label;
  SyntheticConfig config;
  int64_t expected_domains;
};

// Print only the label: the raw bytes gtest prints by default hold pointers,
// which would make the discovered ctest name differ from run to run.
void PrintTo(const NamedConfigCase& c, std::ostream* os) { *os << c.label; }

class NamedConfigTest : public ::testing::TestWithParam<NamedConfigCase> {};

TEST_P(NamedConfigTest, GeneratesExpectedLayout) {
  const auto& param = GetParam();
  auto result = Generate(param.config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& ds = result.value();
  EXPECT_EQ(ds.num_domains(), param.expected_domains);
  EXPECT_TRUE(ds.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(
    PaperLayouts, NamedConfigTest,
    ::testing::Values(
        NamedConfigCase{"Amazon6", Amazon6Like(0.15, 3), 6},
        NamedConfigCase{"Amazon13", Amazon13Like(0.15, 3), 13},
        NamedConfigCase{"Taobao10", TaobaoLike(10, 0.3, 3), 10},
        NamedConfigCase{"Taobao20", TaobaoLike(20, 0.3, 3), 20},
        NamedConfigCase{"Taobao30", TaobaoLike(30, 0.3, 3), 30},
        NamedConfigCase{"Industry", IndustryLike(16, 0.5, 3), 16}),
    [](const ::testing::TestParamInfo<NamedConfigCase>& pinfo) {
      return pinfo.param.label;
    });

TEST(NamedConfigTest, Amazon13HasSparseDomains) {
  // The 7 added domains include very sparse ones (Gift Cards, Software...).
  auto c = Amazon13Like(1.0, 3);
  int64_t min_pos = c.domains[0].num_positives;
  int64_t max_pos = min_pos;
  for (const auto& d : c.domains) {
    min_pos = std::min(min_pos, d.num_positives);
    max_pos = std::max(max_pos, d.num_positives);
  }
  EXPECT_LT(min_pos * 50, max_pos);  // >50x imbalance
}

TEST(NamedConfigTest, TaobaoRatiosMatchPublishedTable) {
  auto c = TaobaoLike(10, 1.0, 3);
  EXPECT_DOUBLE_EQ(c.domains[0].ctr_ratio, 0.22);
  EXPECT_DOUBLE_EQ(c.domains[4].ctr_ratio, 0.47);
  EXPECT_DOUBLE_EQ(c.domains[9].ctr_ratio, 0.25);
}

TEST(BatcherTest, CoversAllDataOncePerEpoch) {
  std::vector<Interaction> data;
  for (int i = 0; i < 25; ++i) data.push_back({i, i, 1.0f});
  Rng rng(4);
  Batcher batcher(&data, 10, &rng);
  Batch b;
  std::multiset<int64_t> seen;
  int batches = 0;
  while (batcher.Next(&b)) {
    ++batches;
    for (int64_t u : b.users) seen.insert(u);
  }
  EXPECT_EQ(batches, 3);  // 10 + 10 + 5
  EXPECT_EQ(seen.size(), 25u);
  for (int i = 0; i < 25; ++i) EXPECT_EQ(seen.count(i), 1u);
}

TEST(BatcherTest, ReshuffleChangesOrder) {
  std::vector<Interaction> data;
  for (int i = 0; i < 50; ++i) data.push_back({i, i, 1.0f});
  Rng rng(4);
  Batcher batcher(&data, 50, &rng);
  Batch b1, b2;
  batcher.Next(&b1);
  batcher.Reshuffle();
  batcher.Next(&b2);
  EXPECT_NE(b1.users, b2.users);
}

TEST(BatcherTest, AllAndSample) {
  std::vector<Interaction> data;
  for (int i = 0; i < 30; ++i) data.push_back({i, i, 0.0f});
  Batch all = Batcher::All(data);
  EXPECT_EQ(all.size(), 30);
  Rng rng(8);
  Batch sample = Batcher::Sample(data, 10, &rng);
  EXPECT_EQ(sample.size(), 10);
  Batch small = Batcher::Sample(data, 100, &rng);
  EXPECT_EQ(small.size(), 30);  // limit above size returns everything
}

TEST(StatsTest, PercentagesSumToHundred) {
  auto ds = mamdr::testing::TinyDataset(4, 150, 6);
  auto stats = ComputeStats(ds);
  double sum = 0.0;
  for (const auto& d : stats.per_domain) sum += d.percentage;
  EXPECT_NEAR(sum, 100.0, 1e-6);
  EXPECT_EQ(stats.num_domains, 4);
  EXPECT_EQ(stats.train + stats.val + stats.test,
            ds.TotalTrain() + ds.TotalVal() + ds.TotalTest());
}

TEST(StatsTest, FormatContainsDomainRows) {
  auto ds = mamdr::testing::TinyDataset(2, 100, 6);
  const std::string s = FormatStats(ComputeStats(ds));
  EXPECT_NE(s.find("T0"), std::string::npos);
  EXPECT_NE(s.find("T1"), std::string::npos);
  EXPECT_NE(s.find("CTR Ratio"), std::string::npos);
}

}  // namespace
}  // namespace data
}  // namespace mamdr

#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace e2ebench {

double OracleAuc(const std::vector<float>& scores,
                 const std::vector<float>& labels) {
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  double pos_rank_sum = 0.0;
  double num_pos = 0.0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    // Ranks i+1 .. j (1-based) are tied: each gets their average.
    const double avg_rank = 0.5 * static_cast<double>(i + 1 + j);
    for (size_t t = i; t < j; ++t) {
      if (labels[order[t]] > 0.5f) {
        pos_rank_sum += avg_rank;
        num_pos += 1.0;
      }
    }
    i = j;
  }
  const double num_neg = static_cast<double>(n) - num_pos;
  if (num_pos == 0.0 || num_neg == 0.0) return 0.5;
  return (pos_rank_sum - num_pos * (num_pos + 1.0) / 2.0) /
         (num_pos * num_neg);
}

std::vector<ScoredItem> RankTopK(const std::vector<int64_t>& items,
                                 const std::vector<float>& scores, int64_t k) {
  std::vector<ScoredItem> all(items.size());
  for (size_t i = 0; i < items.size(); ++i) all[i] = {items[i], scores[i]};
  std::sort(all.begin(), all.end(), [](const ScoredItem& a, const ScoredItem& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.item < b.item;
  });
  if (static_cast<int64_t>(all.size()) > k) {
    all.resize(static_cast<size_t>(std::max<int64_t>(k, 0)));
  }
  return all;
}

std::vector<ScoredItem> BruteForceTopK(mamdr::models::CtrModel* model, int64_t user,
                                       int64_t domain,
                                       const std::vector<int64_t>& pool,
                                       int64_t k) {
  mamdr::data::Batch batch;
  batch.users.assign(pool.size(), user);
  batch.items = pool;
  batch.labels.assign(pool.size(), 0.0f);
  return RankTopK(pool, model->Score(batch, domain), k);
}

namespace {

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

bool SameItems(const std::vector<ScoredItem>& got,
               const std::vector<int64_t>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].item != want[i]) return false;
  }
  return true;
}

}  // namespace

std::string OracleSelfTest() {
  const std::vector<float> labels = {0, 0, 1, 1};
  if (!Near(OracleAuc({0.1f, 0.2f, 0.8f, 0.9f}, labels), 1.0)) {
    return "AUC of a separated set is not 1";
  }
  if (!Near(OracleAuc({0.9f, 0.8f, 0.2f, 0.1f}, labels), 0.0)) {
    return "AUC of a reversed set is not 0";
  }
  if (!Near(OracleAuc({0.3f, 0.3f, 0.3f, 0.3f}, labels), 0.5)) {
    return "AUC of all ties is not 0.5";
  }
  // Pairs (pos, neg): (0.35,0.1)=1 (0.35,0.4)=0 (0.8,*)=1+1 -> 3/4.
  if (!Near(OracleAuc({0.1f, 0.4f, 0.35f, 0.8f}, labels), 0.75)) {
    return "AUC of a mixed set is not 0.75";
  }
  // One tied (pos, neg) pair counts half: (1 + 0.5 + 1 + 1) / 4.
  if (!Near(OracleAuc({0.5f, 0.2f, 0.5f, 0.9f}, labels), 0.875)) {
    return "AUC with a cross-class tie is not 0.875";
  }
  if (!Near(OracleAuc({0.1f, 0.9f}, {1, 1}), 0.5)) {
    return "AUC with one class absent is not 0.5";
  }
  const std::vector<int64_t> items = {5, 3, 9, 1};
  const std::vector<float> scores = {0.2f, 0.9f, 0.2f, 0.9f};
  if (!SameItems(RankTopK(items, scores, 3), {1, 3, 5})) {
    return "top-k does not order by score desc, item asc";
  }
  if (!SameItems(RankTopK(items, scores, 10), {1, 3, 5, 9})) {
    return "top-k with k > pool does not return the whole pool";
  }
  if (!RankTopK(items, scores, 0).empty()) {
    return "top-0 is not empty";
  }
  if (!SameItems(RankTopK({7}, {0.5f}, 10), {7})) {
    return "top-k of a one-item pool is wrong";
  }
  return "";
}

}  // namespace e2ebench

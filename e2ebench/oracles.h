// Reference computations the benchmark checks the library's outputs
// against. They share no code with src/metrics or src/serve: the AUC is
// computed from average ranks here, and top-k ranks raw CtrModel::Score
// output with a plain sort.
#ifndef MAMDR_E2EBENCH_ORACLES_H_
#define MAMDR_E2EBENCH_ORACLES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "models/ctr_model.h"

namespace e2ebench {

/// Mann-Whitney AUC: (sum of positive ranks - P(P+1)/2) / (P*N), where tied
/// scores share the average of the ranks they span. 0.5 when either class
/// is absent (the convention the library's evaluator follows).
double OracleAuc(const std::vector<float>& scores,
                 const std::vector<float>& labels);

struct ScoredItem {
  int64_t item = 0;
  float score = 0.0f;
};

/// The first min(k, n) of `items` ordered by score descending, then item id
/// ascending.
std::vector<ScoredItem> RankTopK(const std::vector<int64_t>& items,
                                 const std::vector<float>& scores, int64_t k);

/// Brute-force top-k of `user` over `pool` in `domain`: one
/// CtrModel::Score pass over the whole pool, then RankTopK.
std::vector<ScoredItem> BruteForceTopK(mamdr::models::CtrModel* model, int64_t user,
                                       int64_t domain,
                                       const std::vector<int64_t>& pool,
                                       int64_t k);

/// Hand-made cases for both oracles. Returns "" when every case passes,
/// otherwise a description of the first failure.
std::string OracleSelfTest();

}  // namespace e2ebench

#endif  // MAMDR_E2EBENCH_ORACLES_H_

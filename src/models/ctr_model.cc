#include "models/ctr_model.h"

#include "autograd/tape.h"
#include "tensor/nn_kernels.h"

namespace mamdr {
namespace models {

std::vector<float> CtrModel::Score(const data::Batch& batch, int64_t domain) {
  autograd::NoGradGuard no_grad;
  nn::Context ctx;  // eval mode
  Var logits = Forward(batch, domain, ctx);
  Tensor probs = ops::Sigmoid(logits.value());
  std::vector<float> out(static_cast<size_t>(probs.size()));
  std::copy(probs.data(), probs.data() + probs.size(), out.begin());
  return out;
}

Var CtrModel::Loss(const data::Batch& batch, int64_t domain,
                   const nn::Context& ctx) {
  Var logits = Forward(batch, domain, ctx);
  Tensor labels({logits.value().rows(), 1});
  MAMDR_CHECK_EQ(static_cast<int64_t>(batch.labels.size()),
                 logits.value().rows());
  for (int64_t i = 0; i < labels.rows(); ++i) {
    labels.at(i, 0) = batch.labels[static_cast<size_t>(i)];
  }
  return autograd::BceWithLogitsMean(logits, labels);
}

}  // namespace models
}  // namespace mamdr

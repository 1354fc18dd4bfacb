#include "autograd/ops.h"
#include "tensor/nn_kernels.h"

namespace mamdr {
namespace autograd {

Var BceWithLogitsMean(const Var& logits, const Tensor& labels) {
  Tensor out({1});
  out.data()[0] = ops::BceWithLogitsMean(logits.value(), labels);
  const int64_t n = labels.size();
  auto ln = logits.node();
  Tensor lv = logits.value();
  Tensor yv = labels;
  return MakeOpNode(
      std::move(out), {logits},
      [ln, lv, yv, n](const Tensor& g) {
        // d/dx_i = (sigmoid(x_i) - y_i) / n.
        const float scale = g.data()[0] / static_cast<float>(n);
        AccumGrad(ln, ops::BceWithLogitsBackward(lv, yv, scale));
      },
      "bce_with_logits_mean");
}

}  // namespace autograd
}  // namespace mamdr

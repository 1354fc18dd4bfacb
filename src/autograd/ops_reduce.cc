#include "autograd/ops.h"
#include "tensor/nn_kernels.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {

Var Sum(const Var& a) {
  Tensor out({1});
  out.data()[0] = ops::Sum(a.value());
  auto an = a.node();
  Shape in_shape = a.value().shape();
  return MakeOpNode(
      std::move(out), {a},
      [an, in_shape](const Tensor& g) {
        AccumGrad(an, Tensor(in_shape, g.data()[0]));
      },
      "sum");
}

Var Mean(const Var& a) {
  const float inv = 1.0f / static_cast<float>(a.value().size());
  Tensor out({1});
  out.data()[0] = ops::Sum(a.value()) * inv;
  auto an = a.node();
  Shape in_shape = a.value().shape();
  return MakeOpNode(
      std::move(out), {a},
      [an, in_shape, inv](const Tensor& g) {
        AccumGrad(an, Tensor(in_shape, g.data()[0] * inv));
      },
      "mean");
}

Var SumCols(const Var& a) {
  Tensor out = ops::SumCols(a.value());
  auto an = a.node();
  const int64_t n = a.value().cols();
  return MakeOpNode(
      std::move(out), {a},
      // g is [m,1]; broadcast back to [m,n].
      [an, n](const Tensor& g) { AccumGrad(an, ops::BroadcastCol(g, n)); },
      "sum_cols");
}

Var SumRows(const Var& a) {
  Tensor out = ops::SumRows(a.value());
  auto an = a.node();
  const int64_t m = a.value().rows();
  return MakeOpNode(
      std::move(out), {a},
      // g is [1,n]; broadcast back to [m,n].
      [an, m](const Tensor& g) { AccumGrad(an, ops::BroadcastRow(g, m)); },
      "sum_rows");
}

}  // namespace autograd
}  // namespace mamdr

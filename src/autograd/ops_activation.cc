#include "autograd/ops.h"
#include "tensor/nn_kernels.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {

Var Relu(const Var& a) {
  Tensor out = ops::Relu(a.value());
  auto an = a.node();
  Tensor av = a.value();
  return MakeOpNode(
      std::move(out), {a},
      [an, av](const Tensor& g) { AccumGrad(an, ops::ReluBackward(av, g)); },
      "relu");
}

Var Sigmoid(const Var& a) {
  Tensor out = ops::Sigmoid(a.value());
  auto an = a.node();
  Tensor ov = out;
  return MakeOpNode(
      std::move(out), {a},
      [an, ov](const Tensor& g) {
        AccumGrad(an, ops::SigmoidBackward(ov, g));
      },
      "sigmoid");
}

Var Tanh(const Var& a) {
  Tensor out = ops::Tanh(a.value());
  auto an = a.node();
  Tensor ov = out;
  return MakeOpNode(
      std::move(out), {a},
      [an, ov](const Tensor& g) { AccumGrad(an, ops::TanhBackward(ov, g)); },
      "tanh");
}

Var Exp(const Var& a) {
  Tensor out = ops::Exp(a.value());
  auto an = a.node();
  Tensor ov = out;
  return MakeOpNode(
      std::move(out), {a},
      [an, ov](const Tensor& g) { AccumGrad(an, ops::Mul(g, ov)); }, "exp");
}

Var Log(const Var& a, float eps) {
  Tensor clamped = ops::ClampMin(a.value(), eps);
  Tensor out = ops::Log(clamped);
  auto an = a.node();
  return MakeOpNode(
      std::move(out), {a},
      [an, clamped](const Tensor& g) { AccumGrad(an, ops::Div(g, clamped)); },
      "log");
}

Var SoftmaxRows(const Var& a) {
  Tensor out = ops::SoftmaxRows(a.value());
  auto an = a.node();
  Tensor ov = out;
  return MakeOpNode(
      std::move(out), {a},
      [an, ov](const Tensor& g) {
        AccumGrad(an, ops::SoftmaxRowsBackward(ov, g));
      },
      "softmax_rows");
}

}  // namespace autograd
}  // namespace mamdr

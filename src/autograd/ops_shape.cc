#include "autograd/ops.h"
#include "tensor/nn_kernels.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {

Var ConcatCols(const std::vector<Var>& parts) {
  std::vector<const Tensor*> values;
  std::vector<std::shared_ptr<Node>> nodes;
  values.reserve(parts.size());
  nodes.reserve(parts.size());
  for (const auto& p : parts) {
    values.push_back(&p.value());
    nodes.push_back(p.node());
  }
  Tensor out = ops::ConcatCols(values);
  std::vector<int64_t> widths;
  widths.reserve(parts.size());
  for (const Tensor* v : values) widths.push_back(v->cols());
  return MakeOpNode(
      std::move(out), parts,
      [nodes, widths](const Tensor& g) {
        int64_t col0 = 0;
        for (size_t k = 0; k < nodes.size(); ++k) {
          AccumGrad(nodes[k], ops::SliceCols(g, col0, widths[k]));
          col0 += widths[k];
        }
      },
      "concat_cols");
}

Var SliceCols(const Var& a, int64_t start, int64_t len) {
  Tensor out = ops::SliceCols(a.value(), start, len);
  auto an = a.node();
  const int64_t n = a.value().cols();
  return MakeOpNode(
      std::move(out), {a},
      [an, start, n](const Tensor& g) {
        AccumGrad(an, ops::PadCols(g, start, n));
      },
      "slice_cols");
}

Var Reshape(const Var& a, Shape shape) {
  Tensor out = a.value().Clone().Reshaped(shape);
  auto an = a.node();
  Shape in_shape = a.value().shape();
  return MakeOpNode(
      std::move(out), {a},
      [an, in_shape](const Tensor& g) {
        AccumGrad(an, g.Clone().Reshaped(in_shape));
      },
      "reshape");
}

}  // namespace autograd
}  // namespace mamdr

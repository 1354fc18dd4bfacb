// Forward and backward kernels of the autograd layer's activation, shape,
// reduction-broadcast and loss ops, on plain Tensors.
//
// Numerical contract: same-seed training is byte-identical, so each kernel
// fixes its per-element expression and evaluation order (as documented on
// it) and no build of it may change a bit. Elementwise maps have no
// cross-element dependence, so the compiler's vectorization of the
// raw-pointer loops cannot change a bit; serial chains (row sums, softmax
// denominators, the loss accumulator) keep their left-to-right order.
// Transcendentals (exp, log, tanh, log1p) stay one libm call per element,
// since no vector math library matches libm's results bit for bit.
//
// The fused optimizer updates at the end are elementwise maps too. Their
// sqrt and div are correctly rounded in the scalar and in the packed SSE
// instructions alike, and src/tensor builds with -fno-math-errno so that
// std::sqrt needs no errno branch and the loops vectorize.
#ifndef MAMDR_TENSOR_NN_KERNELS_H_
#define MAMDR_TENSOR_NN_KERNELS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace mamdr {
namespace ops {

/// max(x, 0) with x > 0 ? x : 0 semantics (NaN and -0 map to +0).
Tensor Relu(const Tensor& x);
/// Relu backward: g where x > 0, else 0.
Tensor ReluBackward(const Tensor& x, const Tensor& g);

/// Numerically stable logistic: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) else.
Tensor Sigmoid(const Tensor& x);
/// Sigmoid backward from its output s: g * s * (1 - s).
Tensor SigmoidBackward(const Tensor& s, const Tensor& g);

Tensor Tanh(const Tensor& x);
/// Tanh backward from its output t: g * (1 - t * t).
Tensor TanhBackward(const Tensor& t, const Tensor& g);

Tensor Exp(const Tensor& x);
Tensor Log(const Tensor& x);
/// max(x, lo) elementwise.
Tensor ClampMin(const Tensor& x, float lo);
/// a / b elementwise; shapes must match.
Tensor Div(const Tensor& a, const Tensor& b);

/// Row-wise softmax of [m,n] (max-shifted).
Tensor SoftmaxRows(const Tensor& x);
/// Softmax backward from its output s: s_ij * (g_ij - sum_k g_ik s_ik).
Tensor SoftmaxRowsBackward(const Tensor& s, const Tensor& g);

/// Row-wise dot product of two [m,n] matrices -> [m,1], each row summed
/// left to right in float32.
Tensor RowwiseDot(const Tensor& a, const Tensor& b);

/// Horizontal concatenation of [m,n_i] matrices -> [m, sum n_i].
Tensor ConcatCols(const std::vector<const Tensor*>& parts);
/// Columns [start, start+len) of [m,n] -> [m,len].
Tensor SliceCols(const Tensor& a, int64_t start, int64_t len);
/// Inverse of SliceCols: [m,len] placed at column `start` of a zero [m,n].
Tensor PadCols(const Tensor& a, int64_t start, int64_t n);

/// [m,1] (or [m]) column repeated across n columns -> [m,n].
Tensor BroadcastCol(const Tensor& col, int64_t n);
/// [1,n] (or [n]) row repeated across m rows -> [m,n].
Tensor BroadcastRow(const Tensor& row, int64_t m);

/// Mean binary cross entropy with logits, stable form
/// max(x,0) - x*y + log1p(exp(-|x|)), summed in double left to right.
float BceWithLogitsMean(const Tensor& logits, const Tensor& labels);
/// Its gradient times `scale`: scale * (sigmoid(x_i) - y_i).
Tensor BceWithLogitsBackward(const Tensor& logits, const Tensor& labels,
                             float scale);

/// Step constants of one Adam update: bc1/bc2 are the bias corrections
/// 1 - beta1^t and 1 - beta2^t of the current step.
struct AdamConstants {
  float lr = 0.0f;
  float beta1 = 0.0f;
  float beta2 = 0.0f;
  float eps = 0.0f;
  float bc1 = 1.0f;
  float bc2 = 1.0f;
};

/// One fused Adam step over n elements, in place on the weights w and
/// the moments m, v, from gradient g, in this order (no FMA):
///   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g;
///   w -= lr * (m/bc1) / (sqrt(v/bc2) + eps).
void AdamUpdate(float* w, float* m, float* v, const float* g, int64_t n,
                const AdamConstants& c);

/// One fused Adagrad step: acc += g*g; w -= lr * g / (sqrt(acc) + eps).
void AdagradUpdate(float* w, float* acc, const float* g, int64_t n, float lr,
                   float eps);

}  // namespace ops
}  // namespace mamdr

#endif  // MAMDR_TENSOR_NN_KERNELS_H_

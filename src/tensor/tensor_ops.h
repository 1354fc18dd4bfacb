// Raw numeric kernels on Tensor (no autograd). The autograd layer builds its
// forward/backward passes out of these.
#ifndef MAMDR_TENSOR_TENSOR_OPS_H_
#define MAMDR_TENSOR_TENSOR_OPS_H_

#include "tensor/tensor.h"

namespace mamdr {
namespace ops {

/// C = A * B for 2-D matrices ([m,k] x [k,n] -> [m,n]). Cache-blocked and
/// row-parallel over the kernel pool (see common/parallel_for.h); each
/// worker owns disjoint output rows and accumulates k-terms in the same
/// ascending order as the serial kernel, so results are bit-identical for
/// any thread count.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// The original single-threaded unblocked MatMul (the growth seed's
/// kernel). Kept as the baseline for bench_kernels and equivalence tests.
Tensor MatMulNaive(const Tensor& a, const Tensor& b);

/// C = A^T * B ([k,m]^T x [k,n] -> [m,n]) without materializing A^T.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// C = A * B^T ([m,k] x [n,k]^T -> [m,n]) without materializing B^T.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// Transpose of a 2-D matrix.
Tensor Transpose(const Tensor& a);

/// Elementwise binary ops; shapes must match exactly.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

/// out = a + alpha * b (shapes must match).
Tensor Axpy(const Tensor& a, const Tensor& b, float alpha);

/// In-place y += alpha * x.
void AxpyInPlace(Tensor* y, const Tensor& x, float alpha);

/// In-place y = base + beta * (y - base) (shapes must match).
void InterpolateInPlace(Tensor* y, const Tensor& base, float beta);

/// In-place y *= alpha.
void ScaleInPlace(Tensor* y, float alpha);

/// Elementwise scalar ops.
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

/// Add a [1,n] (or [n]) row vector to every row of an [m,n] matrix.
Tensor AddRowVector(const Tensor& a, const Tensor& row);

/// Multiply every row of [m,n] elementwise by an [m,1] (or [m]) column.
Tensor MulColVector(const Tensor& a, const Tensor& col);

/// Sum over rows of [m,n] -> [1,n] (used for bias gradients).
Tensor SumRows(const Tensor& a);

/// Sum over cols of [m,n] -> [m,1].
Tensor SumCols(const Tensor& a);

/// Full reductions.
float Sum(const Tensor& a);
float Dot(const Tensor& a, const Tensor& b);
float SquaredNorm(const Tensor& a);
float MaxAbs(const Tensor& a);

/// True if every |a_i - b_i| <= atol.
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

}  // namespace ops
}  // namespace mamdr

#endif  // MAMDR_TENSOR_TENSOR_OPS_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "autograd/tape.h"
#include "common/random.h"
#include "tensor/nn_kernels.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace autograd {
namespace {

Tensor RandTensor(const Shape& shape, Rng* rng, float scale = 1.0f) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.at(i) = static_cast<float>(rng->Normal()) * scale;
  }
  return t;
}

TEST(VariableTest, LeafProperties) {
  Var v(Tensor({2, 2}, 1.0f), /*requires_grad=*/true, "w");
  EXPECT_TRUE(v.requires_grad());
  EXPECT_EQ(v.name(), "w");
  EXPECT_FALSE(v.has_grad());
  v.ZeroGrad();
  EXPECT_TRUE(v.has_grad());
  v.ClearGrad();
  EXPECT_FALSE(v.has_grad());
}

TEST(VariableTest, BackwardOnSimpleChain) {
  Var x(Tensor::FromVector({3.0f}), true);
  // y = (2x)^2 ; dy/dx = 8x = 24.
  Var y = Square(MulScalar(x, 2.0f));
  Var loss = Sum(y);
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 24.0f);
}

TEST(VariableTest, GradAccumulatesAcrossBackwardCalls) {
  Var x(Tensor::FromVector({1.0f}), true);
  Sum(MulScalar(x, 3.0f)).Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 3.0f);
  Sum(MulScalar(x, 3.0f)).Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 6.0f);  // accumulated
}

TEST(VariableTest, DiamondGraphAccumulates) {
  // loss = sum(x*x + x*x) -> d/dx = 4x.
  Var x(Tensor::FromVector({2.0f}), true);
  Var a = Mul(x, x);
  Var loss = Sum(Add(a, a));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 8.0f);
}

TEST(VariableTest, NoGradThroughDetachedLeaf) {
  Var x(Tensor::FromVector({1.0f}), true);
  Var c(Tensor::FromVector({5.0f}), false);  // constant
  Var loss = Sum(Mul(x, c));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 5.0f);
  EXPECT_FALSE(c.has_grad());
}

TEST(NoGradGuardTest, DisablesRecording) {
  Var x(Tensor::FromVector({1.0f}), true);
  {
    NoGradGuard ng;
    Var y = MulScalar(x, 2.0f);
    EXPECT_EQ(y.node()->backward, nullptr);
  }
  Var y2 = MulScalar(x, 2.0f);
  EXPECT_NE(y2.node()->backward, nullptr);
}

// ---------------------------------------------------------------------------
// Gradient checks for every op, via central finite differences.
// ---------------------------------------------------------------------------

struct OpCase {
  std::string name;
  // Builds a scalar loss from the two parameter Vars.
  std::function<Var(const Var&, const Var&)> loss;
  Shape a_shape{2, 3};
  Shape b_shape{2, 3};
};

// gtest otherwise prints the raw bytes of the case, pointers included, and
// that text is part of the discovered ctest name; print only the case name so
// the name is the same in every run.
void PrintTo(const OpCase& oc, std::ostream* os) { *os << oc.name; }

class OpGradTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradTest, AnalyticMatchesNumeric) {
  const OpCase& oc = GetParam();
  Rng rng(1234);
  Var a(RandTensor(oc.a_shape, &rng, 0.5f), true, "a");
  Var b(RandTensor(oc.b_shape, &rng, 0.5f), true, "b");
  auto forward = [&]() { return oc.loss(a, b); };
  auto result = CheckGradients(forward, {a, b});
  EXPECT_TRUE(result.ok) << oc.name << " max_rel_err=" << result.max_rel_err;
}

// Weighted sums make the incoming gradient non-uniform, exercising the
// backward closures harder than plain Sum().
Var WeightedSum(const Var& x) {
  Tensor w(x.value().shape());
  for (int64_t i = 0; i < w.size(); ++i) {
    w.at(i) = 0.3f + 0.1f * static_cast<float>(i % 5);
  }
  return Sum(Mul(x, Var(w)));
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradTest,
    ::testing::Values(
        OpCase{"add", [](const Var& a, const Var& b) {
                 return WeightedSum(Add(a, b));
               }},
        OpCase{"sub", [](const Var& a, const Var& b) {
                 return WeightedSum(Sub(a, b));
               }},
        OpCase{"mul", [](const Var& a, const Var& b) {
                 return WeightedSum(Mul(a, b));
               }},
        OpCase{"square", [](const Var& a, const Var&) {
                 return WeightedSum(Square(a));
               }},
        OpCase{"neg_addscalar", [](const Var& a, const Var&) {
                 return WeightedSum(AddScalar(Neg(a), 0.7f));
               }},
        OpCase{"mulscalar", [](const Var& a, const Var&) {
                 return WeightedSum(MulScalar(a, -1.3f));
               }},
        OpCase{"matmul",
               [](const Var& a, const Var& b) {
                 return WeightedSum(MatMul(a, b));
               },
               {2, 3},
               {3, 4}},
        OpCase{"add_row_vector",
               [](const Var& a, const Var& b) {
                 return WeightedSum(AddRowVector(a, b));
               },
               {3, 4},
               {1, 4}},
        OpCase{"mul_col_vector",
               [](const Var& a, const Var& b) {
                 return WeightedSum(MulColVector(a, b));
               },
               {3, 4},
               {3, 1}},
        OpCase{"rowwise_dot", [](const Var& a, const Var& b) {
                 return WeightedSum(RowwiseDot(a, b));
               }},
        OpCase{"relu", [](const Var& a, const Var&) {
                 // Shift away from 0 to avoid kinks in the numeric check.
                 return WeightedSum(Relu(AddScalar(a, 1.5f)));
               }},
        OpCase{"sigmoid", [](const Var& a, const Var&) {
                 return WeightedSum(Sigmoid(a));
               }},
        OpCase{"tanh", [](const Var& a, const Var&) {
                 return WeightedSum(Tanh(a));
               }},
        OpCase{"exp", [](const Var& a, const Var&) {
                 return WeightedSum(Exp(a));
               }},
        OpCase{"log", [](const Var& a, const Var&) {
                 return WeightedSum(Log(AddScalar(Square(a), 1.0f)));
               }},
        OpCase{"softmax", [](const Var& a, const Var&) {
                 return WeightedSum(SoftmaxRows(a));
               }},
        OpCase{"sum_cols", [](const Var& a, const Var&) {
                 return WeightedSum(SumCols(a));
               }},
        OpCase{"sum_rows", [](const Var& a, const Var&) {
                 return WeightedSum(SumRows(a));
               }},
        OpCase{"mean", [](const Var& a, const Var&) {
                 return Mean(Square(a));
               }},
        OpCase{"concat_slice", [](const Var& a, const Var& b) {
                 Var c = ConcatCols({a, b});
                 return WeightedSum(SliceCols(c, 1, 4));
               }},
        OpCase{"reshape", [](const Var& a, const Var&) {
                 return WeightedSum(Reshape(Square(a), {3, 2}));
               }}),
    [](const ::testing::TestParamInfo<OpCase>& pinfo) {
      return pinfo.param.name;
    });

TEST(EmbeddingLookupTest, ForwardGathersRows) {
  Var table(Tensor::FromMatrix({{1, 2}, {3, 4}, {5, 6}}), true);
  Var out = EmbeddingLookup(table, {2, 0, 2});
  EXPECT_TRUE(ops::AllClose(out.value(),
                            Tensor::FromMatrix({{5, 6}, {1, 2}, {5, 6}})));
}

TEST(EmbeddingLookupTest, BackwardScatterAddsDuplicates) {
  Var table(Tensor({3, 2}), true);
  Var out = EmbeddingLookup(table, {1, 1, 0});
  Sum(out).Backward();
  // Row 1 selected twice -> grad 2, row 0 once -> 1, row 2 never -> 0.
  EXPECT_FLOAT_EQ(table.grad().at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(table.grad().at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(table.grad().at(2, 0), 0.0f);
}

TEST(EmbeddingLookupTest, GradCheck) {
  Rng rng(55);
  Var table(RandTensor({5, 3}, &rng), true);
  std::vector<int64_t> ids{0, 2, 2, 4, 1};
  auto forward = [&]() {
    return Sum(Square(EmbeddingLookup(table, ids)));
  };
  auto result = CheckGradients(forward, {table});
  EXPECT_TRUE(result.ok) << result.max_rel_err;
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(1);
  Var x(Tensor({4, 4}, 1.0f), true);
  Var y = Dropout(x, 0.5f, &rng, /*training=*/false);
  EXPECT_TRUE(ops::AllClose(x.value(), y.value()));
}

TEST(DropoutTest, TrainingPreservesExpectation) {
  Rng rng(7);
  Var x(Tensor({100, 100}, 1.0f), false);
  Var y = Dropout(x, 0.3f, &rng, /*training=*/true);
  // Inverted dropout: E[y] = 1. Mean over 10k elements should be close.
  EXPECT_NEAR(ops::Sum(y.value()) / 10000.0f, 1.0f, 0.03f);
}

TEST(BceTest, MatchesManualComputation) {
  Var logits(Tensor({2, 1}, std::vector<float>{0.0f, 2.0f}), true);
  Tensor labels({2, 1}, std::vector<float>{1.0f, 0.0f});
  Var loss = BceWithLogitsMean(logits, labels);
  const float l0 = std::log(2.0f);                    // -log(sigmoid(0))
  const float l1 = std::log(1.0f + std::exp(2.0f));   // -log(1-sigmoid(2))
  EXPECT_NEAR(loss.value().at(0), (l0 + l1) / 2.0f, 1e-5f);
}

TEST(BceTest, GradCheck) {
  Rng rng(99);
  Var logits(RandTensor({6, 1}, &rng), true);
  Tensor labels({6, 1});
  for (int64_t i = 0; i < 6; ++i) labels.at(i) = i % 2 ? 1.0f : 0.0f;
  auto forward = [&]() { return BceWithLogitsMean(logits, labels); };
  auto result = CheckGradients(forward, {logits});
  EXPECT_TRUE(result.ok) << result.max_rel_err;
}

TEST(BceTest, ExtremeLogitsAreFinite) {
  Var logits(Tensor({2, 1}, std::vector<float>{100.0f, -100.0f}), true);
  Tensor labels({2, 1}, std::vector<float>{0.0f, 1.0f});
  Var loss = BceWithLogitsMean(logits, labels);
  EXPECT_TRUE(std::isfinite(loss.value().at(0)));
  loss.Backward();
  EXPECT_TRUE(std::isfinite(logits.grad().at(0)));
}

TEST(SigmoidValueTest, StableAtExtremes) {
  Tensor logits = Tensor::FromVector({-80.0f, 0.0f, 80.0f});
  Tensor p = ops::Sigmoid(logits);
  EXPECT_NEAR(p.at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(p.at(1), 0.5f, 1e-6f);
  EXPECT_NEAR(p.at(2), 1.0f, 1e-6f);
}

// ---------------------------------------------------------------------------
// Bit parity of the op kernels with the original per-element loops.
//
// Each op's forward and backward run through the autograd layer and are
// compared with memcmp against the element loops the ops used before they
// moved into tensor/nn_kernels.cc, kept here verbatim as the reference.
// Sizes straddle the 8-lane vector width (1, 7, 8, 9) and leave ragged
// tails on long rows (255, 1023).
// ---------------------------------------------------------------------------

namespace reference {

Tensor Relu(const Tensor& x) {
  Tensor out(x.shape());
  for (int64_t i = 0; i < out.size(); ++i) {
    out.at(i) = x.at(i) > 0.0f ? x.at(i) : 0.0f;
  }
  return out;
}

Tensor ReluBackward(const Tensor& av, const Tensor& g) {
  Tensor gi(g.shape());
  for (int64_t i = 0; i < g.size(); ++i) {
    gi.at(i) = av.at(i) > 0.0f ? g.at(i) : 0.0f;
  }
  return gi;
}

Tensor SigmoidValue(const Tensor& logits) {
  Tensor out(logits.shape());
  for (int64_t i = 0; i < out.size(); ++i) {
    const float x = logits.at(i);
    out.at(i) = x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                          : std::exp(x) / (1.0f + std::exp(x));
  }
  return out;
}

Tensor SigmoidBackward(const Tensor& ov, const Tensor& g) {
  Tensor gi(g.shape());
  for (int64_t i = 0; i < g.size(); ++i) {
    const float s = ov.at(i);
    gi.at(i) = g.at(i) * s * (1.0f - s);
  }
  return gi;
}

Tensor Tanh(const Tensor& x) {
  Tensor out(x.shape());
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) = std::tanh(x.at(i));
  return out;
}

Tensor TanhBackward(const Tensor& ov, const Tensor& g) {
  Tensor gi(g.shape());
  for (int64_t i = 0; i < g.size(); ++i) {
    gi.at(i) = g.at(i) * (1.0f - ov.at(i) * ov.at(i));
  }
  return gi;
}

Tensor Exp(const Tensor& x) {
  Tensor out(x.shape());
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) = std::exp(x.at(i));
  return out;
}

void Log(const Tensor& x, float eps, Tensor* out, Tensor* clamped) {
  *out = Tensor(x.shape());
  *clamped = Tensor(x.shape());
  for (int64_t i = 0; i < out->size(); ++i) {
    const float v = std::max(x.at(i), eps);
    clamped->at(i) = v;
    out->at(i) = std::log(v);
  }
}

Tensor LogBackward(const Tensor& clamped, const Tensor& g) {
  Tensor gi(g.shape());
  for (int64_t i = 0; i < g.size(); ++i) gi.at(i) = g.at(i) / clamped.at(i);
  return gi;
}

Tensor SoftmaxRows(const Tensor& a) {
  const int64_t m = a.rows(), n = a.cols();
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    float mx = a.at(i, 0);
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, a.at(i, j));
    float denom = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      const float e = std::exp(a.at(i, j) - mx);
      out.at(i, j) = e;
      denom += e;
    }
    for (int64_t j = 0; j < n; ++j) out.at(i, j) /= denom;
  }
  return out;
}

Tensor SoftmaxRowsBackward(const Tensor& ov, const Tensor& g) {
  const int64_t rows = ov.rows(), cols = ov.cols();
  Tensor gi({rows, cols});
  for (int64_t i = 0; i < rows; ++i) {
    float dot = 0.0f;
    for (int64_t k = 0; k < cols; ++k) dot += g.at(i, k) * ov.at(i, k);
    for (int64_t j = 0; j < cols; ++j) {
      gi.at(i, j) = ov.at(i, j) * (g.at(i, j) - dot);
    }
  }
  return gi;
}

Tensor RowwiseDot(const Tensor& a, const Tensor& b) {
  const int64_t m = a.rows(), n = a.cols();
  Tensor out({m, 1});
  for (int64_t i = 0; i < m; ++i) {
    float acc = 0.0f;
    for (int64_t j = 0; j < n; ++j) acc += a.at(i, j) * b.at(i, j);
    out.at(i, 0) = acc;
  }
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  const int64_t m = parts[0].rows();
  int64_t total = 0;
  for (const auto& p : parts) total += p.cols();
  Tensor out({m, total});
  int64_t off = 0;
  for (const auto& p : parts) {
    const int64_t n = p.cols();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) out.at(i, off + j) = p.at(i, j);
    }
    off += n;
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t len) {
  const int64_t m = a.rows();
  Tensor out({m, len});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < len; ++j) out.at(i, j) = a.at(i, start + j);
  }
  return out;
}

Tensor SliceColsBackward(const Tensor& g, int64_t start, int64_t n) {
  const int64_t m = g.rows(), len = g.cols();
  Tensor gi({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < len; ++j) gi.at(i, start + j) = g.at(i, j);
  }
  return gi;
}

float BceWithLogitsMean(const Tensor& logits, const Tensor& labels) {
  const int64_t n = logits.size();
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float x = logits.at(i);
    const float y = labels.at(i);
    acc += std::max(x, 0.0f) - x * y + std::log1p(std::exp(-std::fabs(x)));
  }
  return static_cast<float>(acc / static_cast<double>(n));
}

Tensor BceBackward(const Tensor& lv, const Tensor& yv, float g0) {
  const int64_t n = lv.size();
  Tensor gi(lv.shape());
  const float scale = g0 / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    const float x = lv.at(i);
    const float s = x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                              : std::exp(x) / (1.0f + std::exp(x));
    gi.at(i) = scale * (s - yv.at(i));
  }
  return gi;
}

Tensor SumColsBackward(const Tensor& g, int64_t n) {
  const int64_t m = g.rows();
  Tensor gi({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) gi.at(i, j) = g.at(i, 0);
  }
  return gi;
}

Tensor SumRowsBackward(const Tensor& g, int64_t m) {
  const int64_t n = g.cols();
  Tensor gi({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) gi.at(i, j) = g.at(0, j);
  }
  return gi;
}

// What a leaf's .grad holds after one AccumGrad of `g` into a fresh
// buffer: 0 + 1 * g (which turns -0 into +0).
Tensor Accumulated(const Tensor& g) {
  Tensor out(g.shape());
  for (int64_t i = 0; i < g.size(); ++i) out.at(i) = 0.0f + 1.0f * g.at(i);
  return out;
}

}  // namespace reference

const int64_t kParitySizes[] = {1, 7, 8, 9, 255, 1023};

// Mixed magnitudes and signs, with exact zeros, -0, large logits and tiny
// values salted in so every branch of every kernel is taken.
Tensor ParityTensor(const Shape& shape, Rng* rng) {
  Tensor t(shape);
  float* p = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    const float mag = static_cast<float>(std::ldexp(
        rng->Uniform(0.5, 1.0), static_cast<int>(rng->UniformInt(12)) - 8));
    p[i] = rng->Uniform() < 0.5 ? -mag : mag;
    switch (i % 11) {
      case 3: p[i] = 0.0f; break;
      case 5: p[i] = -0.0f; break;
      case 7: p[i] = (i % 2 ? 1.0f : -1.0f) * 40.0f; break;
      case 9: p[i] = 1e-13f; break;
      default: break;
    }
  }
  return t;
}

void ExpectBitsEqual(const Tensor& got, const Tensor& want,
                     const std::string& what) {
  ASSERT_EQ(ShapeToString(got.shape()), ShapeToString(want.shape())) << what;
  if (std::memcmp(got.data(), want.data(),
                  static_cast<size_t>(got.size()) * sizeof(float)) == 0) {
    return;
  }
  for (int64_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": first differing element " << i << " got "
                    << got.data()[i] << " want " << want.data()[i];
      return;
    }
  }
}

// An upstream gradient as an op's backward receives it: already summed
// into its output's fresh grad buffer, so with no -0 left.
Tensor Upstream(const Shape& shape, Rng* rng) {
  return reference::Accumulated(ParityTensor(shape, rng));
}

// Runs op on parameter leaves, backpropagates `upstream` into its output
// (loss = Sum(op(...) * upstream), so the op's backward receives exactly
// `upstream`), and returns the output value.
Tensor RunWithUpstream(const std::function<Var()>& op,
                       const Tensor& upstream) {
  Var out = op();
  Sum(Mul(out, Var(upstream))).Backward();
  return out.value();
}

std::string Label(const char* op, int64_t n) {
  return std::string(op) + " n=" + std::to_string(n);
}

TEST(KernelParityTest, UnaryActivationsMatchReferenceLoops) {
  Rng rng(2024);
  for (const int64_t n : kParitySizes) {
    const Tensor x0 = ParityTensor({n}, &rng);
    const Tensor g = Upstream({n}, &rng);
    {
      Var x(x0.Clone(), true);
      const Tensor y = RunWithUpstream([&] { return Relu(x); }, g);
      ExpectBitsEqual(y, reference::Relu(x0), Label("relu fwd", n));
      ExpectBitsEqual(x.grad(),
                      reference::Accumulated(reference::ReluBackward(x0, g)),
                      Label("relu bwd", n));
    }
    {
      Var x(x0.Clone(), true);
      const Tensor y = RunWithUpstream([&] { return Sigmoid(x); }, g);
      const Tensor want = reference::SigmoidValue(x0);
      ExpectBitsEqual(y, want, Label("sigmoid fwd", n));
      ExpectBitsEqual(
          x.grad(), reference::Accumulated(reference::SigmoidBackward(want, g)),
          Label("sigmoid bwd", n));
    }
    {
      Var x(x0.Clone(), true);
      const Tensor y = RunWithUpstream([&] { return Tanh(x); }, g);
      const Tensor want = reference::Tanh(x0);
      ExpectBitsEqual(y, want, Label("tanh fwd", n));
      ExpectBitsEqual(x.grad(),
                      reference::Accumulated(reference::TanhBackward(want, g)),
                      Label("tanh bwd", n));
    }
    {
      Var x(x0.Clone(), true);
      const Tensor y = RunWithUpstream([&] { return Exp(x); }, g);
      const Tensor want = reference::Exp(x0);
      ExpectBitsEqual(y, want, Label("exp fwd", n));
      ExpectBitsEqual(x.grad(),
                      reference::Accumulated(ops::Mul(g, want)),
                      Label("exp bwd", n));
    }
    {
      Var x(x0.Clone(), true);
      const Tensor y = RunWithUpstream([&] { return Log(x); }, g);
      Tensor want, clamped;
      reference::Log(x0, 1e-12f, &want, &clamped);
      ExpectBitsEqual(y, want, Label("log fwd", n));
      ExpectBitsEqual(
          x.grad(), reference::Accumulated(reference::LogBackward(clamped, g)),
          Label("log bwd", n));
    }
  }
}

TEST(KernelParityTest, RowOpsMatchReferenceLoops) {
  Rng rng(2025);
  constexpr int64_t kRows = 3;
  for (const int64_t n : kParitySizes) {
    const Tensor a0 = ParityTensor({kRows, n}, &rng);
    const Tensor b0 = ParityTensor({kRows, n}, &rng);
    {
      const Tensor g = Upstream({kRows, n}, &rng);
      Var a(a0.Clone(), true);
      const Tensor y = RunWithUpstream([&] { return SoftmaxRows(a); }, g);
      const Tensor want = reference::SoftmaxRows(a0);
      ExpectBitsEqual(y, want, Label("softmax fwd", n));
      ExpectBitsEqual(
          a.grad(),
          reference::Accumulated(reference::SoftmaxRowsBackward(want, g)),
          Label("softmax bwd", n));
    }
    {
      const Tensor g = Upstream({kRows, 1}, &rng);
      Var a(a0.Clone(), true), b(b0.Clone(), true);
      const Tensor y = RunWithUpstream([&] { return RowwiseDot(a, b); }, g);
      ExpectBitsEqual(y, reference::RowwiseDot(a0, b0),
                      Label("rowwise_dot fwd", n));
      // The backward is MulColVector, which did not change.
      ExpectBitsEqual(a.grad(),
                      reference::Accumulated(ops::MulColVector(b0, g)),
                      Label("rowwise_dot bwd a", n));
      ExpectBitsEqual(b.grad(),
                      reference::Accumulated(ops::MulColVector(a0, g)),
                      Label("rowwise_dot bwd b", n));
    }
    {
      const Tensor c0 = ParityTensor({kRows, 5}, &rng);
      const Tensor g = Upstream({kRows, 2 * n + 5}, &rng);
      Var a(a0.Clone(), true), b(b0.Clone(), true), c(c0.Clone(), true);
      const Tensor y =
          RunWithUpstream([&] { return ConcatCols({a, c, b}); }, g);
      ExpectBitsEqual(y, reference::ConcatCols({a0, c0, b0}),
                      Label("concat fwd", n));
      ExpectBitsEqual(a.grad(),
                      reference::Accumulated(reference::SliceCols(g, 0, n)),
                      Label("concat bwd a", n));
      ExpectBitsEqual(c.grad(),
                      reference::Accumulated(reference::SliceCols(g, n, 5)),
                      Label("concat bwd c", n));
      ExpectBitsEqual(
          b.grad(), reference::Accumulated(reference::SliceCols(g, n + 5, n)),
          Label("concat bwd b", n));
    }
    {
      const int64_t start = n / 3, len = n - n / 3 - n / 4;
      const Tensor g = Upstream({kRows, len}, &rng);
      Var a(a0.Clone(), true);
      const Tensor y =
          RunWithUpstream([&] { return SliceCols(a, start, len); }, g);
      ExpectBitsEqual(y, reference::SliceCols(a0, start, len),
                      Label("slice fwd", n));
      ExpectBitsEqual(a.grad(),
                      reference::Accumulated(
                          reference::SliceColsBackward(g, start, n)),
                      Label("slice bwd", n));
    }
    {
      const Tensor g = Upstream({kRows, 1}, &rng);
      Var a(a0.Clone(), true);
      RunWithUpstream([&] { return SumCols(a); }, g);
      ExpectBitsEqual(
          a.grad(), reference::Accumulated(reference::SumColsBackward(g, n)),
          Label("sum_cols bwd", n));
    }
    {
      const Tensor g = Upstream({1, n}, &rng);
      Var a(a0.Clone(), true);
      RunWithUpstream([&] { return SumRows(a); }, g);
      ExpectBitsEqual(a.grad(),
                      reference::Accumulated(
                          reference::SumRowsBackward(g, kRows)),
                      Label("sum_rows bwd", n));
    }
  }
}

TEST(KernelParityTest, LossAndFullReductionsMatchReferenceLoops) {
  Rng rng(2026);
  for (const int64_t n : kParitySizes) {
    const Tensor x0 = ParityTensor({n, 1}, &rng);
    Tensor labels({n, 1});
    for (int64_t i = 0; i < n; ++i) {
      labels.data()[i] = rng.Uniform() < 0.5 ? 1.0f : 0.0f;
    }
    const Tensor g = Tensor::FromVector({0.75f});
    {
      Var x(x0.Clone(), true);
      const Tensor loss =
          RunWithUpstream([&] { return BceWithLogitsMean(x, labels); }, g);
      ExpectBitsEqual(
          loss,
          Tensor::FromVector({reference::BceWithLogitsMean(x0, labels)}),
          Label("bce fwd", n));
      ExpectBitsEqual(x.grad(),
                      reference::Accumulated(
                          reference::BceBackward(x0, labels, 0.75f)),
                      Label("bce bwd", n));
    }
    {
      Var x(x0.Clone(), true);
      const Tensor y = RunWithUpstream([&] { return Sum(x); }, g);
      ExpectBitsEqual(y, Tensor::FromVector({ops::Sum(x0)}),
                      Label("sum fwd", n));
      ExpectBitsEqual(x.grad(),
                      reference::Accumulated(Tensor(x0.shape(), 0.75f)),
                      Label("sum bwd", n));
    }
    {
      Var x(x0.Clone(), true);
      const float inv = 1.0f / static_cast<float>(n);
      const Tensor y = RunWithUpstream([&] { return Mean(x); }, g);
      ExpectBitsEqual(y, Tensor::FromVector({ops::Sum(x0) * inv}),
                      Label("mean fwd", n));
      ExpectBitsEqual(
          x.grad(), reference::Accumulated(Tensor(x0.shape(), 0.75f * inv)),
          Label("mean bwd", n));
    }
  }
}

}  // namespace
}  // namespace autograd
}  // namespace mamdr

// Bitwise-equivalence tests for the runtime-dispatched SIMD kernels
// (tensor/simd.h). The dispatch contract is that the AVX2 bodies are
// BIT-IDENTICAL to their scalar references on every input — not "close",
// identical — so every comparison here is EXPECT_EQ on float bits, no
// tolerance anywhere. On machines without AVX2 the dispatched kernel IS
// the scalar body and the tests degenerate to self-comparison (still
// useful: they pin the kill-switch and dispatch semantics).
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "optim/adagrad.h"
#include "optim/adam.h"
#include "optim/param_snapshot.h"
#include "tensor/nn_kernels.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace mamdr {
namespace {

namespace simd = ops::simd;

/// Deterministic mix of magnitudes: rounding differences between a fused
/// and unfused mul+add (or a reordered sum) show up fastest when terms
/// span scales and signs.
std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) {
    const float mag = static_cast<float>(
        std::ldexp(rng->Uniform(0.5, 1.0),
                   static_cast<int>(rng->UniformInt(20)) - 10));
    x = rng->Uniform() < 0.5 ? -mag : mag;
  }
  return v;
}

/// Restores the SIMD kill switch on scope exit so one test can't poison
/// the rest of the binary.
struct SimdGuard {
  bool prev = simd::SimdEnabled();
  ~SimdGuard() { simd::SetSimdEnabled(prev); }
};

TEST(SimdDispatchTest, KillSwitchForcesScalar) {
  SimdGuard guard;
  const bool was = simd::SetSimdEnabled(false);
  EXPECT_EQ(was, guard.prev);
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_FALSE(simd::SimdEnabled());
  EXPECT_FALSE(simd::SetSimdEnabled(true));  // returns previous value
  EXPECT_TRUE(simd::SimdEnabled());
}

TEST(SimdDispatchTest, ActiveNeverExceedsCompiled) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  EXPECT_LE(static_cast<int>(simd::ActiveLevel()),
            static_cast<int>(simd::CompiledLevel()));
}

TEST(SimdDispatchTest, LevelNames) {
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
}

TEST(SimdDotTest, DispatchedMatchesScalarBitwise) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  Rng rng(17);
  // Sweep every lane-tail shape: multiples of 8, each remainder, empty.
  for (int64_t n = 0; n <= 67; ++n) {
    const auto a = RandomVec(n, &rng);
    const auto b = RandomVec(n, &rng);
    const float want = simd::internal::DotLanesScalar(a.data(), b.data(), n);
    const float got = simd::DotLanes(a.data(), b.data(), n);
    EXPECT_EQ(want, got) << "n=" << n;
  }
}

TEST(SimdDotTest, EmptyIsZero) {
  EXPECT_EQ(simd::DotLanes(nullptr, nullptr, 0), 0.0f);
  EXPECT_EQ(simd::internal::DotLanesScalar(nullptr, nullptr, 0), 0.0f);
}

TEST(SimdDotTest, KillSwitchPathAgreesToo) {
  SimdGuard guard;
  Rng rng(23);
  const int64_t n = 41;
  const auto a = RandomVec(n, &rng);
  const auto b = RandomVec(n, &rng);
  simd::SetSimdEnabled(true);
  const float on = simd::DotLanes(a.data(), b.data(), n);
  simd::SetSimdEnabled(false);
  const float off = simd::DotLanes(a.data(), b.data(), n);
  EXPECT_EQ(on, off);
}

/// Runs the panel kernel both ways over a fresh zeroed C and diffs bits.
void ExpectPanelBitwise(int64_t m, int64_t k, int64_t n, int64_t sa_i,
                        int64_t sa_k, Rng* rng) {
  const auto a = RandomVec(m * k, rng);
  const auto b = RandomVec(k * n, rng);
  std::vector<float> c_scalar(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> c_simd(c_scalar);
  simd::internal::MatMulPanelScalar(a.data(), sa_i, sa_k, b.data(),
                                    c_scalar.data(), k, n, 0, m);
  simd::MatMulPanel(a.data(), sa_i, sa_k, b.data(), c_simd.data(), k, n, 0,
                    m);
  ASSERT_EQ(std::memcmp(c_scalar.data(), c_simd.data(),
                        c_scalar.size() * sizeof(float)),
            0)
      << "m=" << m << " k=" << k << " n=" << n << " sa_i=" << sa_i
      << " sa_k=" << sa_k;
}

TEST(SimdMatMulPanelTest, OddShapesMatchScalarBitwise) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  Rng rng(31);
  // Shapes straddling every blocking boundary: the 8-wide vector width,
  // the 32-column j-tile, the 32-row/64-k cache blocks, plus degenerate
  // single-row/col/k cases.
  const int64_t shapes[][3] = {
      {1, 1, 1},  {1, 7, 9},   {3, 5, 7},   {7, 64, 32}, {8, 8, 8},
      {9, 65, 33}, {32, 64, 32}, {33, 66, 37}, {2, 3, 70}, {40, 1, 40},
  };
  for (const auto& s : shapes) {
    // Plain layout (sa_i=k, sa_k=1) and transposed-A layout (sa_i=1,
    // sa_k=m) — both strides the public MatMul/MatMulTransA entry points
    // actually pass.
    ExpectPanelBitwise(s[0], s[1], s[2], s[1], 1, &rng);
    ExpectPanelBitwise(s[0], s[1], s[2], 1, s[0], &rng);
  }
}

TEST(SimdMatMulPanelTest, RowRangeWritesOnlyItsRows) {
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  Rng rng(37);
  const int64_t m = 12, k = 20, n = 34;
  const auto a = RandomVec(m * k, &rng);
  const auto b = RandomVec(k * n, &rng);
  std::vector<float> c(static_cast<size_t>(m * n), -1.0f);
  simd::MatMulPanel(a.data(), k, 1, b.data(), c.data(), k, n, 3, 7);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const float v = c[static_cast<size_t>(i * n + j)];
      if (i < 3 || i >= 7) {
        EXPECT_EQ(v, -1.0f) << i << "," << j;
      }
    }
  }
}

TEST(SimdTensorOpsTest, MatMulIdenticalWithSimdOnAndOff) {
  SimdGuard guard;
  Rng rng(43);
  for (const auto& s : {std::vector<int64_t>{5, 9, 13},
                        std::vector<int64_t>{17, 33, 29},
                        std::vector<int64_t>{64, 64, 64}}) {
    Tensor a({s[0], s[1]});
    Tensor b({s[1], s[2]});
    for (int64_t i = 0; i < a.size(); ++i) {
      a.at(i) = static_cast<float>(rng.Normal());
    }
    for (int64_t i = 0; i < b.size(); ++i) {
      b.at(i) = static_cast<float>(rng.Normal());
    }
    simd::SetSimdEnabled(true);
    Tensor c_on = ops::MatMul(a, b);
    Tensor ta_on = ops::MatMulTransA(ops::Transpose(a), b);
    simd::SetSimdEnabled(false);
    Tensor c_off = ops::MatMul(a, b);
    Tensor ta_off = ops::MatMulTransA(ops::Transpose(a), b);
    ASSERT_EQ(std::memcmp(c_on.data(), c_off.data(),
                          static_cast<size_t>(c_on.size()) * sizeof(float)),
              0);
    ASSERT_EQ(std::memcmp(ta_on.data(), ta_off.data(),
                          static_cast<size_t>(ta_on.size()) * sizeof(float)),
              0);
    // And the dispatched result still equals the naive reference in exact
    // float math terms for the blocked contract (same chains, same order).
    Tensor naive = ops::MatMulNaive(a, b);
    ASSERT_EQ(std::memcmp(c_on.data(), naive.data(),
                          static_cast<size_t>(naive.size()) * sizeof(float)),
              0);
  }
}

// ---------------------------------------------------------------------------
// Optimizer kernels. The reference is the per-element loop optim::Adam and
// optim::Adagrad ran before the fused kernels, kept here verbatim and built
// with the tests' flags (errno-setting sqrt, so not vectorized). Every step
// of a 20-step run of the kernel, which src/tensor's flags let the compiler
// vectorize, is compared with memcmp against that loop, on sizes that leave
// every vector tail.
// ---------------------------------------------------------------------------

constexpr int64_t kOptimSizes[] = {1, 7, 8, 9, 255, 1023};
constexpr int kOptimSteps = 20;
constexpr float kLr = 0.01f, kBeta1 = 0.9f, kBeta2 = 0.999f, kEps = 1e-8f;

void ReferenceAdamStep(std::vector<float>* w, std::vector<float>* m,
                       std::vector<float>* v, const std::vector<float>& g,
                       int64_t t) {
  const float beta1_ = kBeta1, beta2_ = kBeta2, eps_ = kEps, lr_ = kLr;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t));
  float* pm = m->data();
  float* pv = v->data();
  const float* pg = g.data();
  float* pw = w->data();
  const int64_t n = static_cast<int64_t>(g.size());
  for (int64_t j = 0; j < n; ++j) {
    pm[j] = beta1_ * pm[j] + (1.0f - beta1_) * pg[j];
    pv[j] = beta2_ * pv[j] + (1.0f - beta2_) * pg[j] * pg[j];
    const float mhat = pm[j] / bc1;
    const float vhat = pv[j] / bc2;
    pw[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
  }
}

void ReferenceAdagradStep(std::vector<float>* w, std::vector<float>* acc,
                          const std::vector<float>& g) {
  const float lr_ = kLr, eps_ = kEps;
  float* pa = acc->data();
  const float* pg = g.data();
  float* pw = w->data();
  const int64_t n = static_cast<int64_t>(g.size());
  for (int64_t j = 0; j < n; ++j) {
    pa[j] += pg[j] * pg[j];
    pw[j] -= lr_ * pg[j] / (std::sqrt(pa[j]) + eps_);
  }
}

bool SameBits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         SameBits(a.data(), b.data(), static_cast<int64_t>(a.size()));
}

/// One parameter vector's optimizer state, advanced by one code path.
struct AdamState {
  std::vector<float> w, m, v;
  explicit AdamState(const std::vector<float>& w0)
      : w(w0), m(w0.size(), 0.0f), v(w0.size(), 0.0f) {}
};

TEST(OptimizerKernelTest, AdamKernelMatchesReferenceBitwise) {
  Rng rng(53);
  for (const int64_t n : kOptimSizes) {
    const auto w0 = RandomVec(n, &rng);
    AdamState ref(w0), got(w0);
    for (int64_t t = 1; t <= kOptimSteps; ++t) {
      const auto g = RandomVec(n, &rng);
      ReferenceAdamStep(&ref.w, &ref.m, &ref.v, g, t);
      const ops::AdamConstants c{
          kLr, kBeta1, kBeta2, kEps,
          1.0f - std::pow(kBeta1, static_cast<float>(t)),
          1.0f - std::pow(kBeta2, static_cast<float>(t))};
      ops::AdamUpdate(got.w.data(), got.m.data(), got.v.data(), g.data(), n,
                      c);
      ASSERT_TRUE(SameBits(got.m, ref.m)) << "m n=" << n << " t=" << t;
      ASSERT_TRUE(SameBits(got.v, ref.v)) << "v n=" << n << " t=" << t;
      ASSERT_TRUE(SameBits(got.w, ref.w)) << "w n=" << n << " t=" << t;
    }
  }
}

TEST(OptimizerKernelTest, AdagradKernelMatchesReferenceBitwise) {
  Rng rng(59);
  for (const int64_t n : kOptimSizes) {
    const auto w0 = RandomVec(n, &rng);
    std::vector<float> ref_w = w0, ref_acc(w0.size(), 0.0f);
    std::vector<float> got_w = w0, got_acc = ref_acc;
    for (int64_t t = 1; t <= kOptimSteps; ++t) {
      const auto g = RandomVec(n, &rng);
      ReferenceAdagradStep(&ref_w, &ref_acc, g);
      ops::AdagradUpdate(got_w.data(), got_acc.data(), g.data(), n, kLr,
                         kEps);
      ASSERT_TRUE(SameBits(got_acc, ref_acc)) << "n=" << n << " t=" << t;
      ASSERT_TRUE(SameBits(got_w, ref_w)) << "n=" << n << " t=" << t;
    }
  }
}

/// Loads g into a parameter's gradient buffer.
void SetGrad(autograd::Var* p, const std::vector<float>& g) {
  p->ZeroGrad();
  std::copy(g.begin(), g.end(), p->mutable_grad().data());
}

// The optimizer classes end to end (step counter, bias corrections, the
// per-parameter loop) against the reference loops.
TEST(OptimizerKernelTest, OptimizerStepsMatchReference) {
  Rng rng(61);
  const int64_t n = 1023;
  const auto w0 = RandomVec(n, &rng);
  autograd::Var adam_p(Tensor({n}, w0), true);
  autograd::Var adagrad_p(Tensor({n}, w0), true);
  optim::Adam adam({adam_p}, kLr, kBeta1, kBeta2, kEps);
  optim::Adagrad adagrad({adagrad_p}, kLr, kEps);
  AdamState ref(w0);
  std::vector<float> ref_w = w0, ref_acc(w0.size(), 0.0f);
  for (int64_t t = 1; t <= kOptimSteps; ++t) {
    const auto g = RandomVec(n, &rng);
    SetGrad(&adam_p, g);
    SetGrad(&adagrad_p, g);
    adam.Step();
    adagrad.Step();
    ReferenceAdamStep(&ref.w, &ref.m, &ref.v, g, t);
    ReferenceAdagradStep(&ref_w, &ref_acc, g);
    ASSERT_TRUE(SameBits(adam_p.value().data(), ref.w.data(), n))
        << "adam t=" << t;
    ASSERT_TRUE(SameBits(adagrad_p.value().data(), ref_w.data(), n))
        << "adagrad t=" << t;
  }
}

TEST(OptimizerKernelTest, MetaInterpolateMatchesReferenceLoop) {
  Rng rng(67);
  const float beta = 0.37f;
  for (const int64_t n : kOptimSizes) {
    const auto w0 = RandomVec(n, &rng);
    const auto s0 = RandomVec(n, &rng);
    autograd::Var p(Tensor({n}, w0), true);
    optim::MetaInterpolate({p}, {Tensor({n}, s0)}, beta);
    std::vector<float> want = w0;
    for (int64_t j = 0; j < n; ++j) want[j] = s0[j] + beta * (want[j] - s0[j]);
    ASSERT_TRUE(SameBits(p.value().data(), want.data(), n)) << "n=" << n;
  }
}

}  // namespace
}  // namespace mamdr

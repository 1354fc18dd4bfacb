#include "tensor/nn_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace mamdr {
namespace ops {
namespace {

void CheckSameShape(const Tensor& a, const Tensor& b) {
  MAMDR_CHECK(a.shape() == b.shape())
      << ShapeToString(a.shape()) << " vs " << ShapeToString(b.shape());
}

// out[i] = f(x[i]). Elements are independent, so whatever the compiler
// vectorizes here computes each output exactly as the scalar loop would.
template <typename F>
Tensor Map(const Tensor& x, F f) {
  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const int64_t n = x.size();
  for (int64_t i = 0; i < n; ++i) po[i] = f(px[i]);
  return out;
}

// out[i] = f(a[i], b[i]) over same-shape operands.
template <typename F>
Tensor Map2(const Tensor& a, const Tensor& b, F f) {
  CheckSameShape(a, b);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
  return out;
}

inline float StableSigmoid(float x) {
  return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                   : std::exp(x) / (1.0f + std::exp(x));
}

}  // namespace

Tensor Relu(const Tensor& x) {
  return Map(x, [](float v) { return v > 0.0f ? v : 0.0f; });
}

Tensor ReluBackward(const Tensor& x, const Tensor& g) {
  return Map2(x, g, [](float v, float gv) { return v > 0.0f ? gv : 0.0f; });
}

Tensor Sigmoid(const Tensor& x) { return Map(x, StableSigmoid); }

Tensor SigmoidBackward(const Tensor& s, const Tensor& g) {
  return Map2(s, g, [](float sv, float gv) { return gv * sv * (1.0f - sv); });
}

Tensor Tanh(const Tensor& x) {
  return Map(x, [](float v) { return std::tanh(v); });
}

Tensor TanhBackward(const Tensor& t, const Tensor& g) {
  return Map2(t, g, [](float tv, float gv) { return gv * (1.0f - tv * tv); });
}

Tensor Exp(const Tensor& x) {
  return Map(x, [](float v) { return std::exp(v); });
}

Tensor Log(const Tensor& x) {
  return Map(x, [](float v) { return std::log(v); });
}

Tensor ClampMin(const Tensor& x, float lo) {
  return Map(x, [lo](float v) { return std::max(v, lo); });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return Map2(a, b, [](float av, float bv) { return av / bv; });
}

Tensor SoftmaxRows(const Tensor& x) {
  MAMDR_CHECK_EQ(x.rank(), 2);
  const int64_t m = x.rows(), n = x.cols();
  MAMDR_CHECK_GT(n, 0);
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    const float* xr = x.data() + i * n;
    float* orow = out.data() + i * n;
    float mx = xr[0];
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, xr[j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      const float e = std::exp(xr[j] - mx);
      orow[j] = e;
      denom += e;
    }
    for (int64_t j = 0; j < n; ++j) orow[j] /= denom;
  }
  return out;
}

Tensor SoftmaxRowsBackward(const Tensor& s, const Tensor& g) {
  CheckSameShape(s, g);
  MAMDR_CHECK_EQ(s.rank(), 2);
  const int64_t m = s.rows(), n = s.cols();
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    const float* sr = s.data() + i * n;
    const float* gr = g.data() + i * n;
    float* orow = out.data() + i * n;
    float dot = 0.0f;
    for (int64_t k = 0; k < n; ++k) dot += gr[k] * sr[k];
    for (int64_t j = 0; j < n; ++j) orow[j] = sr[j] * (gr[j] - dot);
  }
  return out;
}

Tensor RowwiseDot(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  MAMDR_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.rows(), n = a.cols();
  Tensor out({m, 1});
  for (int64_t i = 0; i < m; ++i) {
    const float* ar = a.data() + i * n;
    const float* br = b.data() + i * n;
    float acc = 0.0f;
    for (int64_t j = 0; j < n; ++j) acc += ar[j] * br[j];
    out.data()[i] = acc;
  }
  return out;
}

Tensor ConcatCols(const std::vector<const Tensor*>& parts) {
  MAMDR_CHECK(!parts.empty());
  const int64_t m = parts[0]->rows();
  int64_t total = 0;
  for (const Tensor* p : parts) {
    MAMDR_CHECK_EQ(p->rank(), 2);
    MAMDR_CHECK_EQ(p->rows(), m);
    total += p->cols();
  }
  Tensor out({m, total});
  int64_t off = 0;
  for (const Tensor* p : parts) {
    const int64_t w = p->cols();
    for (int64_t i = 0; i < m && w > 0; ++i) {
      std::memcpy(out.data() + i * total + off, p->data() + i * w,
                  static_cast<size_t>(w) * sizeof(float));
    }
    off += w;
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t len) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.rows(), n = a.cols();
  MAMDR_CHECK_GE(start, 0);
  MAMDR_CHECK_GE(len, 0);
  MAMDR_CHECK_LE(start + len, n);
  Tensor out({m, len});
  for (int64_t i = 0; i < m && len > 0; ++i) {
    std::memcpy(out.data() + i * len, a.data() + i * n + start,
                static_cast<size_t>(len) * sizeof(float));
  }
  return out;
}

Tensor PadCols(const Tensor& a, int64_t start, int64_t n) {
  MAMDR_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.rows(), len = a.cols();
  MAMDR_CHECK_GE(start, 0);
  MAMDR_CHECK_LE(start + len, n);
  Tensor out({m, n});
  for (int64_t i = 0; i < m && len > 0; ++i) {
    std::memcpy(out.data() + i * n + start, a.data() + i * len,
                static_cast<size_t>(len) * sizeof(float));
  }
  return out;
}

Tensor BroadcastCol(const Tensor& col, int64_t n) {
  const int64_t m = col.size();
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    std::fill_n(out.data() + i * n, n, col.data()[i]);
  }
  return out;
}

Tensor BroadcastRow(const Tensor& row, int64_t m) {
  const int64_t n = row.size();
  Tensor out({m, n});
  for (int64_t i = 0; i < m && n > 0; ++i) {
    std::memcpy(out.data() + i * n, row.data(),
                static_cast<size_t>(n) * sizeof(float));
  }
  return out;
}

float BceWithLogitsMean(const Tensor& logits, const Tensor& labels) {
  CheckSameShape(logits, labels);
  const int64_t n = logits.size();
  MAMDR_CHECK_GT(n, 0);
  const float* px = logits.data();
  const float* py = labels.data();
  // The loss sums in double, serially: the reported loss value is part of
  // the same-seed output contract.
  double acc = 0.0;  // mamdr-lint: allow(kernel-double)
  for (int64_t i = 0; i < n; ++i) {
    const float x = px[i];
    acc += std::max(x, 0.0f) - x * py[i] +
           std::log1p(std::exp(-std::fabs(x)));
  }
  return static_cast<float>(acc / static_cast<double>(n));
}

Tensor BceWithLogitsBackward(const Tensor& logits, const Tensor& labels,
                             float scale) {
  return Map2(logits, labels, [scale](float x, float y) {
    return scale * (StableSigmoid(x) - y);
  });
}

void AdamUpdate(float* w, float* m, float* v, const float* g, int64_t n,
                const AdamConstants& c) {
  // Locals, so the stores through w/m/v cannot alias the constants.
  const float lr = c.lr, beta1 = c.beta1, beta2 = c.beta2, eps = c.eps;
  const float bc1 = c.bc1, bc2 = c.bc2;
  for (int64_t j = 0; j < n; ++j) {
    m[j] = beta1 * m[j] + (1.0f - beta1) * g[j];
    v[j] = beta2 * v[j] + (1.0f - beta2) * g[j] * g[j];
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void AdagradUpdate(float* w, float* acc, const float* g, int64_t n, float lr,
                   float eps) {
  for (int64_t j = 0; j < n; ++j) {
    acc[j] += g[j] * g[j];
    w[j] -= lr * g[j] / (std::sqrt(acc[j]) + eps);
  }
}

}  // namespace ops
}  // namespace mamdr

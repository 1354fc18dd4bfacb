#include "optim/adam.h"

#include <cmath>

#include "tensor/nn_kernels.h"

namespace mamdr {
namespace optim {

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {}

void Adam::Step() {
  if (m_.empty()) {
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const auto& p : params_) {
      m_.emplace_back(p.value().shape());
      v_.emplace_back(p.value().shape());
    }
  }
  ++t_;
  const ops::AdamConstants c{
      lr_, beta1_, beta2_, eps_,
      /*bc1=*/1.0f - std::pow(beta1_, static_cast<float>(t_)),
      /*bc2=*/1.0f - std::pow(beta2_, static_cast<float>(t_))};
  for (size_t i = 0; i < params_.size(); ++i) {
    Var& p = params_[i];
    if (!p.has_grad()) continue;
    const Tensor& g = p.grad();
    ops::AdamUpdate(p.mutable_value().data(), m_[i].data(), v_[i].data(),
                    g.data(), g.size(), c);
  }
}

void Adam::Reset() {
  m_.clear();
  v_.clear();
  t_ = 0;
}

}  // namespace optim
}  // namespace mamdr

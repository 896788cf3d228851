#include "rna/train/stage.hpp"

#include <algorithm>

#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"

namespace rna::train {

GradientStage::GradientStage(std::size_t dim, std::size_t staleness_bound,
                             LocalCombine combine)
    : dim_(dim), bound_(staleness_bound), combine_(combine) {
  RNA_CHECK_MSG(staleness_bound >= 1, "staleness bound must be >= 1");
}

bool GradientStage::Write(std::span<const float> grad,
                          std::int64_t iteration) {
  RNA_CHECK_MSG(grad.size() == dim_, "gradient dimension mismatch");
  common::MutexLock lock(mu_);
  bool grew = true;
  if (entries_.size() == bound_) {
    entries_.pop_front();  // overwrite the stalest gradient (bounded staleness)
    ++dropped_;
    grew = false;
  }
  entries_.push_back(Entry{{grad.begin(), grad.end()}, iteration});
  return grew;
}

std::optional<GradientStage::Drained> GradientStage::Drain() {
  std::deque<Entry> taken;
  {
    common::MutexLock lock(mu_);
    if (entries_.empty()) return std::nullopt;
    taken.swap(entries_);
  }

  Drained out;
  out.count = taken.size();
  out.oldest = taken.front().iteration;
  out.newest = taken.back().iteration;

  if (taken.size() == 1 || combine_ == LocalCombine::kLatest) {
    out.used = 1;
    out.grad = std::move(taken.back().grad);
    if (combine_ == LocalCombine::kLatest && taken.size() > 1) {
      // Older buffered gradients are discarded unused.
      common::MutexLock lock(mu_);
      dropped_ += taken.size() - 1;
    }
    return out;
  }

  out.used = taken.size();
  out.grad.assign(dim_, 0.0f);
  double weight_sum = 0.0;
  for (const Entry& e : taken) {
    // §3.3: weight (t − (k−τ) + 1) grows linearly with recency; the oldest
    // buffered gradient gets weight 1. kMean uses uniform weights.
    const double w =
        combine_ == LocalCombine::kWeightedAverage
            ? static_cast<double>(e.iteration - out.oldest + 1)
            : 1.0;
    weight_sum += w;
    common::simd::WeightedAccumulate(out.grad, e.grad,
                                     static_cast<float>(w));
  }
  common::simd::ScaleInto(out.grad, static_cast<float>(1.0 / weight_sum));
  return out;
}

bool GradientStage::HasGradient() const {
  common::MutexLock lock(mu_);
  return !entries_.empty();
}

std::size_t GradientStage::BufferedCount() const {
  common::MutexLock lock(mu_);
  return entries_.size();
}

std::size_t GradientStage::Dropped() const {
  common::MutexLock lock(mu_);
  return dropped_;
}

ParamBoard::ParamBoard(std::vector<float> initial)
    : params_(std::move(initial)) {}

void ParamBoard::Publish(std::span<const float> params, std::int64_t version) {
  common::MutexLock lock(mu_);
  RNA_CHECK_MSG(params.size() == params_.size(), "param dimension mismatch");
  if (version <= version_) return;  // stale publish, keep the newer state
  params_.assign(params.begin(), params.end());
  version_ = version;
}

std::int64_t ParamBoard::ReadIfNewer(std::int64_t last_seen,
                                     std::vector<float>* out) const {
  common::MutexLock lock(mu_);
  if (version_ > last_seen && out != nullptr) *out = params_;
  return version_;
}

std::vector<float> ParamBoard::Snapshot(std::int64_t* version) const {
  common::MutexLock lock(mu_);
  if (version != nullptr) *version = version_;
  return params_;
}

}  // namespace rna::train

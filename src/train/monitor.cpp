#include "rna/train/monitor.hpp"

#include <algorithm>
#include <limits>

#include "rna/common/check.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"

namespace rna::train {

EvalMonitor::EvalMonitor(const TrainerConfig& config,
                         const ModelFactory& factory,
                         const data::Dataset& val_data)
    : config_(config),
      net_(factory(config.model_seed)),
      val_(data::ShardView::All(val_data)),
      rng_(config.seed + 5000) {}

EvalMonitor::~EvalMonitor() { Finish(); }

void EvalMonitor::Start(const ParamBoard& board, std::atomic<bool>& stop,
                        const std::atomic<std::size_t>& rounds_done) {
  RNA_CHECK_MSG(!thread_.joinable(), "monitor already started");
  board_ = &board;
  stop_ = &stop;
  rounds_ = &rounds_done;
  {
    common::MutexLock lock(mu_);
    finished_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void EvalMonitor::Finish() {
  if (!thread_.joinable()) return;
  {
    common::MutexLock lock(mu_);
    finished_ = true;
  }
  cv_.NotifyAll();
  thread_.join();
}

// Waits out one eval period; returns false as soon as Finish() is called.
bool EvalMonitor::WaitPeriod() {
  const auto deadline =
      common::SteadyClock::now() + common::FromSeconds(config_.eval_period_s);
  common::MutexLock lock(mu_);
  while (!finished_) {
    if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
  }
  return !finished_;
}

nn::BatchResult EvalMonitor::EvalSubsample(std::span<const float> params) {
  net_->SetParamsFrom(params);
  const std::size_t n = std::min(config_.eval_samples, val_.Size());
  std::vector<std::size_t> indices(n);
  for (auto& i : indices) i = rng_.UniformInt(val_.Size());
  return net_->Evaluate(val_.MakeBatch(indices));
}

namespace {

// Evaluations run in slices of at most this many samples, which bounds
// per-batch memory for sequence datasets.
constexpr std::size_t kSliceSamples = 512;

struct Slice {
  const data::ShardView* view;
  std::size_t start;
  std::size_t count;
};

void AppendSlices(const data::ShardView& view, std::size_t limit,
                  std::vector<Slice>* slices) {
  for (std::size_t start = 0; start < limit; start += kSliceSamples) {
    slices->push_back({&view, start, std::min(kSliceSamples, limit - start)});
  }
}

// Evaluates `params` on every slice, dealing the slices round-robin to the
// replicas (the first on this thread, each other one on a thread of its
// own), and returns the per-slice results in slice order.
std::vector<nn::BatchResult> EvaluateSlices(
    std::span<nn::Network* const> replicas, std::span<const float> params,
    std::span<const Slice> slices) {
  for (nn::Network* net : replicas) {
    // A training replica arrives with its arena pinned to the training
    // batch's high-water; eval slices may be far larger, so let the short
    // region grow again for this terminal pass.
    if (net->ArenaEnabled() && net->ComputeArena().ExactMode()) {
      net->ComputeArena().Relax();
    }
    net->SetParamsFrom(params);
  }
  std::vector<nn::BatchResult> parts(slices.size());
  auto deal = [&](std::size_t r) {
    for (std::size_t i = r; i < slices.size(); i += replicas.size()) {
      const Slice& slice = slices[i];
      parts[i] = replicas[r]->Evaluate(
          slice.view->MakeBatchRange(slice.start, slice.count));
    }
  };
  std::vector<std::thread> helpers;
  for (std::size_t r = 1; r < replicas.size(); ++r) {
    helpers.emplace_back(deal, r);
  }
  deal(0);
  for (std::thread& helper : helpers) helper.join();
  return parts;
}

// Sums per-slice results in slice order, the loss weighted by sample count.
// The order is fixed, so the bits do not depend on which replica evaluated
// which slice.
nn::BatchResult Fold(std::span<const nn::BatchResult> parts) {
  nn::BatchResult total;
  double loss_weighted = 0.0;
  for (const nn::BatchResult& r : parts) {
    total.correct += r.correct;
    total.total += r.total;
    loss_weighted += r.loss * static_cast<double>(r.total);
  }
  total.loss = total.total ? loss_weighted / static_cast<double>(total.total)
                           : 0.0;
  return total;
}

}  // namespace

nn::BatchResult EvaluateDataset(nn::Network& net, std::span<const float> params,
                                const data::Dataset& dataset,
                                std::size_t max_samples) {
  const data::ShardView view = data::ShardView::All(dataset);
  std::vector<Slice> slices;
  AppendSlices(view,
               max_samples > 0 ? std::min(max_samples, dataset.Size())
                               : dataset.Size(),
               &slices);
  nn::Network* const replica[] = {&net};
  return Fold(EvaluateSlices(replica, params, slices));
}

void EvalMonitor::FinalEval(nn::Network& replica,
                            const data::Dataset& train_data,
                            TrainResult* result) {
  const data::ShardView train = data::ShardView::All(train_data);
  std::vector<Slice> slices;
  AppendSlices(val_, val_.Size(), &slices);
  const std::size_t val_slices = slices.size();
  AppendSlices(train, std::min<std::size_t>(2048, train.Size()), &slices);
  // Exactly two replicas: a third would hold a third evaluation arena (see
  // DESIGN.md, "Final evaluation").
  nn::Network* const replicas[] = {net_.get(), &replica};
  const std::vector<nn::BatchResult> parts =
      EvaluateSlices(replicas, result->final_params, slices);
  const std::span<const nn::BatchResult> all(parts);
  const nn::BatchResult val = Fold(all.first(val_slices));
  result->final_loss = val.loss;
  result->final_accuracy = val.Accuracy();
  result->final_train_loss = Fold(all.subspan(val_slices)).loss;
}

void EvalMonitor::Loop() {
  const obs::TrackHandle track = obs::RegisterTrack("monitor");
  obs::ScopedTimer curve_clock({}, obs::Category::kOther, "monitor_total");
  double best_loss = std::numeric_limits<double>::infinity();
  std::size_t evals_since_best = 0;
  std::int64_t last_version = -1;

  while (WaitPeriod()) {
    std::vector<float> params;
    const std::int64_t version = board_->ReadIfNewer(last_version, &params);
    if (version <= last_version) continue;  // nothing new published yet
    last_version = version;

    obs::ScopedTimer eval_timer(track, obs::Category::kEval, "eval");
    const nn::BatchResult eval = EvalSubsample(params);
    CurvePoint point;
    point.time = curve_clock.Elapsed();
    point.round = rounds_->load();
    point.loss = eval.loss;
    point.accuracy = eval.Accuracy();
    eval_timer.SetArg("round", static_cast<double>(point.round));
    eval_timer.SetArg("loss", point.loss);
    eval_timer.Stop();
    obs::CountMetric("monitor.evals");
    obs::SetGauge("monitor.latest_loss", point.loss);
    curve_.push_back(point);

    if (config_.target_loss > 0.0 && eval.loss <= config_.target_loss) {
      reached_target_ = true;
      stop_->store(true);
      return;
    }
    if (eval.loss < best_loss - 1e-4) {
      best_loss = eval.loss;
      evals_since_best = 0;
    } else if (++evals_since_best >= config_.patience && config_.patience > 0) {
      early_stopped_ = true;
      stop_->store(true);
      return;
    }
  }
}

}  // namespace rna::train

#include "rna/baselines/baselines.hpp"
#include "rna/train/partial_engine.hpp"

namespace rna::baselines {

// Horovod-style BSP as the zero-staleness, no-backup corner of the
// partial-collective engine: the controller fires only when every member is
// ready (the coordinator's NEGOTIATE_ALLREDUCE), and lockstep pacing hands
// each member one compute token per round, so every worker computes exactly
// one gradient per round against the previous round's parameters. The
// stop decision is the controller's exit Go, which every member observes
// after the same round.
train::TrainResult RunHorovod(const train::TrainerConfig& config,
                              const train::ModelFactory& factory,
                              const data::Dataset& train_data,
                              const data::Dataset& val_data) {
  train::TrainerConfig bsp = config;
  bsp.lockstep = true;
  // One gradient per round and a plain average over the contributors with
  // the unscaled learning rate: Horovod's identical optimizer step.
  bsp.contribution = train::ContributionMode::kNullAndReweight;
  bsp.combine = train::LocalCombine::kLatest;
  bsp.lr_policy = train::LrScalePolicy::kConstant;
  return train::RunPartialCollective(bsp, factory, train_data, val_data,
                                     [] { return train::MakeFullPolicy(); });
}

}  // namespace rna::baselines

#include "protocol_impls.hpp"

namespace rna::core::detail {

// Flat RNA (§3): the generic partial-collective engine, one group of every
// rank, driven by the power-of-q-choices probe trigger (hierarchical RNA
// runs the same engine once per speed group). Everything else the paper
// describes — null-gradient participation, W = 1/Σw re-weighting,
// staleness-weighted local accumulation under a bounded-staleness cap,
// Linear-Scaling-Rule learning rates, cross-iteration compute/comm
// threads — is configured through TrainerConfig and implemented in the
// engine and collectives.
train::TrainResult RunFlatRna(const train::TrainerConfig& config,
                              const train::ModelFactory& factory,
                              const data::Dataset& train_data,
                              const data::Dataset& val_data) {
  const std::size_t choices = config.probe_choices;
  return train::RunPartialCollective(
      config, factory, train_data, val_data,
      [choices] { return MakeProbePolicy(choices); });
}

}  // namespace rna::core::detail

#pragma once

// The three comparison systems of the paper's evaluation (§7.3), each
// re-implemented from scratch on the shared substrates:
//
//  * Horovod — the BSP state of the art, run as the zero-staleness corner
//    of the partial-collective engine: the controller fires only when
//    every member is ready (the coordinator's NEGOTIATE_ALLREDUCE) and
//    paces compute to one gradient per worker per round; every worker
//    waits for the slowest.
//  * AD-PSGD — asynchronous decentralized parallel SGD: each worker
//    independently computes, then performs an *atomic* pairwise model
//    average with one random neighbor; the atomicity cost (the peer's
//    model is locked during the exchange) is real in this implementation.
//  * eager-SGD — partial collectives triggered by the *majority* rule.
//
// Horovod and eager-SGD run on the same engine as RNA, so a comparison
// among the three isolates the protocol, not the implementation.

#include "rna/data/dataset.hpp"
#include "rna/train/config.hpp"
#include "rna/train/metrics.hpp"

namespace rna::baselines {

train::TrainResult RunHorovod(const train::TrainerConfig& config,
                              const train::ModelFactory& factory,
                              const data::Dataset& train_data,
                              const data::Dataset& val_data);

train::TrainResult RunAdPsgd(const train::TrainerConfig& config,
                             const train::ModelFactory& factory,
                             const data::Dataset& train_data,
                             const data::Dataset& val_data);

train::TrainResult RunEagerSgd(const train::TrainerConfig& config,
                               const train::ModelFactory& factory,
                               const data::Dataset& train_data,
                               const data::Dataset& val_data);

/// Stochastic Gradient Push (Assran et al., discussed in the paper's §9):
/// PushSum gossip over a time-varying directed one-out-degree graph. Each
/// iteration a worker updates its (biased) model with a local gradient at
/// the de-biased point x/w, then pushes half of (x, w) to one neighbor and
/// folds in the halves it receives. Robust to communication constraints;
/// needs O(log P) steps to propagate an update globally — the contrast the
/// paper draws with RNA's O(1) collective.
train::TrainResult RunSgp(const train::TrainerConfig& config,
                          const train::ModelFactory& factory,
                          const data::Dataset& train_data,
                          const data::Dataset& val_data);

/// The classic centralized algorithm (paper §2.2): an asynchronous
/// parameter server. Each worker independently computes a gradient at its
/// last pulled model and PushPulls an SGD delta; the server applies deltas
/// in arrival order. No barrier — but every worker talks to one server,
/// the communication hotspot decentralized training removes.
train::TrainResult RunCentralizedPs(const train::TrainerConfig& config,
                                    const train::ModelFactory& factory,
                                    const data::Dataset& train_data,
                                    const data::Dataset& val_data);

}  // namespace rna::baselines

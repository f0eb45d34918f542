/// \file sweep.hpp
/// \brief Direct per-layer sweep over a workload's own wedges: model layers,
///        conv kernel phases, whole-model encode/decode and the baselines.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "tpc/dataset.hpp"

namespace daqbench {

struct SweepInput {
  const nc::tpc::WedgeDataset* dataset = nullptr;
  const std::vector<core::Tensor>* padded = nullptr;  ///< pool, padded
  const std::vector<core::Tensor>* raw = nullptr;     ///< pool, unpadded
  std::uint64_t model_seed = 0;
};

/// Runs the sweep and appends the `core.*`, `bcae.*`, `baselines.*` and the
/// read-side `codec.wedge` per-layer metrics.  A conv plan that disagrees
/// with the model's own layers, or a decoded wedge that differs from a
/// direct decompress, is a violation.
void layer_sweep(const SweepInput& in, MetricList& out, Violations& v);

}  // namespace daqbench

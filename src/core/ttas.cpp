#include "core/ttas.h"

#include "coding/registry.h"
#include "common/error.h"

namespace tsnn::core {

// TTAS's layer and readout runs are TtfsScheme's: each hidden layer
// charges its whole input train in one SynapseTopology::propagate_train()
// call (end_layer), and the readout steps through propagate_accum() -- the
// burst only widens the encode/fire windows, so TTAS rides the same
// batched hot path as TTFS.
TtasScheme::TtasScheme(snn::CodingParams params) : coding::TtfsScheme(params) {
  TSNN_CHECK_MSG(params_.burst_duration >= 1,
                 "TTAS burst duration must be at least 1");
}

snn::CodingSchemePtr make_ttas(std::size_t burst_duration) {
  snn::CodingParams params = coding::default_params(snn::Coding::kTtas);
  params.burst_duration = burst_duration;
  return std::make_unique<TtasScheme>(params);
}

snn::CodingSchemePtr make_ttas(const snn::CodingParams& params) {
  return std::make_unique<TtasScheme>(params);
}

}  // namespace tsnn::core

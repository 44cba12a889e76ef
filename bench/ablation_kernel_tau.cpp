// Ablation: the exponential PSC kernel time constant tau for TTFS/TTAS.
//
// tau trades activation resolution against timing sensitivity: a one-step
// jitter multiplies a TTFS activation by e^(+-1/tau), so small tau means
// sharp kernels, fine value resolution in time, and high jitter
// sensitivity; large tau is jitter-tolerant but quantizes coarsely near
// a = 1 and loses clean accuracy. TSNN's default (tau = 3) sits where
// clean accuracy is preserved while the paper's TTFS jitter collapse and
// the TTAS rescue are both clearly expressed.
#include <cstdio>

#include "bench_common.h"
#include "coding/registry.h"
#include "common/string_util.h"
#include "noise/noise.h"
#include "report/table.h"
#include "snn/simulator.h"

int main(int argc, char** argv) {
  using namespace tsnn;
  bench::init(argc, argv);
  std::printf("Ablation | TTFS/TTAS kernel time constant tau\n");
  const core::ZooWorkload w =
      bench::prepare_workload(core::DatasetKind::kCifar10Like);
  const snn::EvalOptions options = bench::eval_options();

  const std::vector<float> taus{2.0f, 3.0f, 4.0f, 6.0f, 8.0f};
  report::Table table({"Coding", "tau", "clean (%)", "jitter s=2 (%)",
                       "jitter s=2, ttas(5) (%)"});
  const auto jitter = noise::make_jitter(2.0);
  for (const float tau : taus) {
    snn::CodingParams params = coding::default_params(snn::Coding::kTtfs);
    params.tau = tau;
    const auto ttfs = coding::make_scheme(snn::Coding::kTtfs, params);

    snn::CodingParams tparams = coding::default_params(snn::Coding::kTtas);
    tparams.tau = tau;
    tparams.burst_duration = 5;
    const auto ttas = coding::make_scheme(snn::Coding::kTtas, tparams);

    const auto clean = snn::evaluate(w.conversion.model, *ttfs, w.test_images,
                                     w.test_labels, nullptr, options);
    const auto noisy = snn::evaluate(w.conversion.model, *ttfs, w.test_images,
                                     w.test_labels, jitter.get(), options);
    const auto rescued = snn::evaluate(w.conversion.model, *ttas, w.test_images,
                                       w.test_labels, jitter.get(), options);
    table.add_row({"ttfs/ttas", str::format_fixed(tau, 1), bench::pct(clean.accuracy),
                   bench::pct(noisy.accuracy), bench::pct(rescued.accuracy)});
  }
  std::printf("\n%s", table.to_string().c_str());
  return 0;
}

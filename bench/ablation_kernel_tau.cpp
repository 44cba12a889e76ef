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
#include "core/experiment.h"
#include "noise/noise.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace tsnn;
  bench::init(argc, argv);
  std::printf("Ablation | TTFS/TTAS kernel time constant tau\n");
  const core::ZooWorkload w =
      bench::prepare_workload(core::DatasetKind::kCifar10Like);

  const std::vector<float> taus{2.0f, 3.0f, 4.0f, 6.0f, 8.0f};
  const auto jitter = noise::make_jitter(2.0);
  // Three cells per tau -- TTFS clean, TTFS under jitter, TTAS(5) under
  // jitter -- run as one grid.
  std::vector<snn::CodingSchemePtr> schemes;
  std::vector<core::EvalCell> cells;
  const auto add_cell = [&](const snn::CodingScheme* scheme,
                            const snn::NoiseModel* noise) {
    core::EvalCell cell;
    cell.model = &w.conversion.model;
    cell.scheme = scheme;
    cell.noise = noise;
    cell.images = &w.test_images;
    cell.labels = &w.test_labels;
    cell.seed = bench::bench_seed();
    cells.push_back(cell);
  };
  for (const float tau : taus) {
    snn::CodingParams params = coding::default_params(snn::Coding::kTtfs);
    params.tau = tau;
    schemes.push_back(coding::make_scheme(snn::Coding::kTtfs, params));
    const snn::CodingScheme* ttfs = schemes.back().get();

    snn::CodingParams tparams = coding::default_params(snn::Coding::kTtas);
    tparams.tau = tau;
    tparams.burst_duration = 5;
    schemes.push_back(coding::make_scheme(snn::Coding::kTtas, tparams));
    const snn::CodingScheme* ttas = schemes.back().get();

    add_cell(ttfs, nullptr);
    add_cell(ttfs, jitter.get());
    add_cell(ttas, jitter.get());
  }
  core::GridOptions grid;
  grid.num_threads = bench::bench_threads();
  const std::vector<core::EvalCellResult> results = core::run_grid(cells, grid);

  report::Table table({"Coding", "tau", "clean (%)", "jitter s=2 (%)",
                       "jitter s=2, ttas(5) (%)"});
  for (std::size_t t = 0; t < taus.size(); ++t) {
    table.add_row({"ttfs/ttas", str::format_fixed(taus[t], 1),
                   bench::pct(results[3 * t].accuracy),
                   bench::pct(results[3 * t + 1].accuracy),
                   bench::pct(results[3 * t + 2].accuracy)});
  }
  std::printf("\n%s", table.to_string().c_str());
  return 0;
}

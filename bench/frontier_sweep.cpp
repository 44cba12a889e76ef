// Anytime-inference frontier: accuracy vs decision latency per coding.
//
// Sweeps the early-exit margin threshold (the simulator's
// snn::DecisionPolicy) over every coding on the S-MNIST zoo model and
// reports, per (coding, margin) point, the accuracy and the mean readout
// timesteps consumed before the decision -- the anytime latency/accuracy
// frontier: how early each coding can decide at a given accuracy cost.
// Logit scales differ by orders of magnitude across codings (rate
// potentials reach tens, TTFS stays below one), so the level axis is the
// margin as a *fraction* of the coding's typical final decision margin,
// probed from a few policy-off reference images. Fraction
// 0 is the policy-off reference row (full window); the temporal codings
// (TTFS/TTAS) concentrate their evidence early, so their frontier reaches
// well under half the window within ~1% of reference accuracy.
//
// Shares the bench flags/CSV/JSON harness: the level column is
// "margin_frac", and the perf-smoke CI job uploads the JSON as
// BENCH_frontier.json.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "coding/registry.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace tsnn;
  bench::init(argc, argv);

  const core::ZooWorkload w =
      bench::prepare_workload(core::DatasetKind::kMnistLike);

  const std::vector<core::MethodSpec> methods = {
      core::baseline_method(snn::Coding::kRate, false),
      core::baseline_method(snn::Coding::kPhase, false),
      core::baseline_method(snn::Coding::kBurst, false),
      core::baseline_method(snn::Coding::kTtfs, false),
      core::ttas_method(5, false),
  };
  // Fraction 0 = policy off (the full-window reference row of each coding).
  const std::vector<double> fractions = {0.0, 0.25, 0.5, 0.75, 1.0, 1.5};

  bench::SweepReport report("frontier", "margin_frac");
  bench::record_early_exit("margin:sweep");

  struct FrontierPoint {
    double reference_accuracy = 0.0;
    double window = 0.0;         ///< full readout window (reference row)
    double best_fraction = 1.0;  ///< min latency fraction within 1% of ref
  };
  std::vector<FrontierPoint> frontier(methods.size());

  // One cell per (coding, margin fraction), run as one grid.
  std::vector<snn::CodingSchemePtr> schemes;
  std::vector<core::EvalCell> cells;
  for (const core::MethodSpec& method : methods) {
    schemes.push_back(coding::make_scheme(method.coding, method.params));
    const snn::CodingScheme* scheme = schemes.back().get();

    // The coding's margin scale: mean final top-2 logit gap over a few
    // clean reference images.
    float margin_scale = 0.0f;
    {
      snn::SimWorkspace ws;
      snn::SimResult r;
      const std::size_t probe = std::min<std::size_t>(8, w.test_images.size());
      for (std::size_t i = 0; i < probe; ++i) {
        snn::simulate_into(
            snn::SimRequest{&w.conversion.model, scheme, nullptr, nullptr,
                            &ws},
            w.test_images[i], r);
        margin_scale += r.margin;
      }
      margin_scale /= static_cast<float>(probe == 0 ? 1 : probe);
    }

    for (const double fraction : fractions) {
      core::EvalCell cell;
      cell.model = &w.conversion.model;
      cell.scheme = scheme;
      cell.images = &w.test_images;
      cell.labels = &w.test_labels;
      cell.seed = bench::bench_seed();
      if (fraction > 0.0) {
        cell.policy.mode = snn::DecisionPolicy::Mode::kMargin;
        cell.policy.margin = static_cast<float>(fraction) * margin_scale;
        cell.policy.min_timesteps = 2;
      }
      cells.push_back(cell);
    }
  }
  core::GridOptions grid;
  grid.num_threads = bench::bench_threads();
  const std::vector<core::EvalCellResult> results = core::run_grid(cells, grid);

  for (std::size_t m = 0; m < methods.size(); ++m) {
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      const double fraction = fractions[f];
      const core::EvalCellResult& cell = results[m * fractions.size() + f];
      core::ScenarioRow row;
      row.method = methods[m].label;
      row.level = fraction;
      row.accuracy = cell.accuracy;
      row.mean_spikes = cell.mean_spikes;
      row.mean_decision_timesteps = cell.mean_decision_timesteps;
      report.add_row(row);

      if (fraction == 0.0) {
        frontier[m].reference_accuracy = cell.accuracy;
        frontier[m].window = cell.mean_decision_timesteps;
      } else if (cell.accuracy >= frontier[m].reference_accuracy - 0.01 &&
                 frontier[m].window > 0.0) {
        const double latency =
            cell.mean_decision_timesteps / frontier[m].window;
        frontier[m].best_fraction =
            std::min(frontier[m].best_fraction, latency);
      }
    }
  }

  // Per-coding frontier summary: the cheapest decision latency that stays
  // within 1% of the coding's own full-window accuracy.
  std::printf("\n== anytime frontier (S-MNIST, clean) ==\n");
  report::Table table({"Method", "ref acc (%)", "window",
                       "best latency (x window, <=1% loss)"});
  for (std::size_t m = 0; m < methods.size(); ++m) {
    table.add_row({methods[m].label,
                   bench::pct(frontier[m].reference_accuracy),
                   str::format_fixed(frontier[m].window, 0),
                   str::format_fixed(frontier[m].best_fraction, 3)});
    bench::record_metric("frontier_fraction_" + methods[m].label,
                         frontier[m].best_fraction);
  }
  std::printf("%s", table.to_string().c_str());

  report.finish();
  return 0;
}

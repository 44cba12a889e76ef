// Ablation: static (fixed-pattern) vs dynamic (spike) noise -- SS II-B.
//
// The paper argues that static manufacturing variation can be corrected
// after deployment while dynamic noise cannot, so SNNs must be designed
// robust to spike noise specifically. This ablation quantifies both on the
// same model: accuracy under multiplicative weight variation and stuck-at-
// zero synapses (static) next to spike deletion at matched "damage" levels
// (a stuck-at fraction q and a deletion probability p = q corrupt the same
// expected fraction of charge). Static weight variation is far more benign
// than deletion at equal magnitude: it is zero-mean and averaged over each
// neuron's fan-in, whereas deletion removes charge with per-inference
// variance -- supporting the paper's focus on dynamic spike noise.
#include <cstdio>
#include <deque>

#include "bench_common.h"
#include "coding/registry.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "noise/noise.h"
#include "noise/static_noise.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace tsnn;
  bench::init(argc, argv);
  std::printf("Ablation | static (parametric) vs dynamic (spike) noise\n");
  const core::ZooWorkload w =
      bench::prepare_workload(core::DatasetKind::kCifar10Like);
  const auto scheme = coding::make_scheme(snn::Coding::kRate);

  // Every row is one cell of a single grid: a statically perturbed model
  // on clean spikes, or the base model under spike deletion.
  struct Row {
    const char* noise;
    double level;
  };
  std::vector<Row> rows;
  std::deque<snn::SnnModel> noisy_models;  // stable addresses for the cells
  std::vector<snn::NoiseModelPtr> deletions;
  std::vector<core::EvalCell> cells;
  const auto add_cell = [&](const snn::SnnModel& model,
                            const snn::NoiseModel* noise) {
    core::EvalCell cell;
    cell.model = &model;
    cell.scheme = scheme.get();
    cell.noise = noise;
    cell.images = &w.test_images;
    cell.labels = &w.test_labels;
    cell.seed = bench::bench_seed();
    cells.push_back(cell);
  };

  for (const double sigma : {0.0, 0.1, 0.2, 0.3, 0.5}) {
    noise::StaticNoiseConfig cfg;
    cfg.weight_sigma = sigma;
    noisy_models.push_back(noise::with_static_noise(w.conversion.model, cfg));
    add_cell(noisy_models.back(), nullptr);
    rows.push_back({"weight sigma", sigma});
  }

  for (const double q : {0.1, 0.2, 0.3, 0.5}) {
    noise::StaticNoiseConfig cfg;
    cfg.stuck_at_zero = q;
    noisy_models.push_back(noise::with_static_noise(w.conversion.model, cfg));
    add_cell(noisy_models.back(), nullptr);
    rows.push_back({"stuck-at-0 q", q});
  }

  for (const double p : {0.1, 0.2, 0.3, 0.5}) {
    deletions.push_back(noise::make_deletion(p));
    add_cell(w.conversion.model, deletions.back().get());
    rows.push_back({"deletion p", p});
  }

  core::GridOptions grid;
  grid.num_threads = bench::bench_threads();
  const std::vector<core::EvalCellResult> results = core::run_grid(cells, grid);

  report::Table table({"Noise", "level", "Accuracy (%)"});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    table.add_row({rows[r].noise, str::format_fixed(rows[r].level, 2),
                   bench::pct(results[r].accuracy)});
  }
  std::printf("\n%s", table.to_string().c_str());
  std::printf(
      "\nReading: zero-mean weight variation averages out over each neuron's\n"
      "fan-in; stuck-at-zero at fraction q behaves like permanent deletion and\n"
      "tracks deletion p = q (both remove ~q of the delivered charge), except\n"
      "that its fixed pattern could be calibrated away -- the paper's argument\n"
      "for designing robustness against the dynamic component.\n");
  return 0;
}

// Ablation: the weight-scaling factor C.
//
// The paper sets C "proportional to the deletion probability"; TSNN uses
// C = 1/(1-p), the unique factor that restores the mean delivered
// activation. This ablation sweeps C at a fixed deletion probability and
// shows accuracy peaking at (or near) the mean-restoring factor for both a
// count coding (rate) and the proposed TTAS -- under- and over-compensation
// both cost accuracy, which justifies the design choice.
#include <cstdio>

#include "bench_common.h"
#include "coding/registry.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "core/ttas.h"
#include "core/weight_scaling.h"
#include "noise/noise.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace tsnn;
  bench::init(argc, argv);
  std::printf("Ablation | weight-scaling factor C at deletion p = 0.5\n");
  const core::ZooWorkload w =
      bench::prepare_workload(core::DatasetKind::kCifar10Like);

  const double p = 0.5;
  const float c_star = core::weight_scaling_factor(p);
  const std::vector<float> factors{1.0f, 1.33f, 1.6f, c_star, 2.5f, 3.0f, 4.0f};

  struct Method {
    std::string label;
    snn::CodingSchemePtr scheme;
  };
  std::vector<Method> methods;
  methods.push_back({"rate", coding::make_scheme(snn::Coding::kRate)});
  methods.push_back({"ttas(5)", core::make_ttas(5)});

  const auto noise = noise::make_deletion(p);
  // One scaled clone per distinct C, shared by both methods (C = 1.0 is the
  // base model itself); every (method, C) cell runs as one grid.
  core::ScaledModelCache cache(w.conversion.model);
  std::vector<core::EvalCell> cells;
  for (const Method& m : methods) {
    for (const float c : factors) {
      core::EvalCell cell;
      cell.model = &cache.get(c);
      cell.scheme = m.scheme.get();
      cell.noise = noise.get();
      cell.images = &w.test_images;
      cell.labels = &w.test_labels;
      cell.seed = bench::bench_seed();
      cells.push_back(cell);
    }
  }
  core::GridOptions grid;
  grid.num_threads = bench::bench_threads();
  const std::vector<core::EvalCellResult> results = core::run_grid(cells, grid);

  report::Table table({"Method", "C", "Accuracy (%)", "Note"});
  for (std::size_t m = 0; m < methods.size(); ++m) {
    for (std::size_t f = 0; f < factors.size(); ++f) {
      const float c = factors[f];
      table.add_row({methods[m].label, str::format_fixed(c, 2),
                     bench::pct(results[m * factors.size() + f].accuracy),
                     c == c_star ? "C = 1/(1-p)" : ""});
    }
  }
  std::printf("\n%s", table.to_string().c_str());
  return 0;
}

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
#include "core/ttas.h"
#include "core/weight_scaling.h"
#include "noise/noise.h"
#include "report/table.h"
#include "snn/simulator.h"

int main(int argc, char** argv) {
  using namespace tsnn;
  bench::init(argc, argv);
  std::printf("Ablation | weight-scaling factor C at deletion p = 0.5\n");
  const core::ZooWorkload w =
      bench::prepare_workload(core::DatasetKind::kCifar10Like);
  const snn::EvalOptions options = bench::eval_options();

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

  report::Table table({"Method", "C", "Accuracy (%)", "Note"});
  const auto noise = noise::make_deletion(p);
  // One scaled clone per distinct C, shared by both methods (C = 1.0 is the
  // base model itself); evaluation runs on the persistent bench pool.
  core::ScaledModelCache cache(w.conversion.model);
  for (const Method& m : methods) {
    for (const float c : factors) {
      const snn::SnnModel& model = cache.get(c);
      const snn::BatchResult r = snn::evaluate(model, *m.scheme, w.test_images,
                                               w.test_labels, noise.get(), options);
      table.add_row({m.label, str::format_fixed(c, 2), bench::pct(r.accuracy),
                     c == c_star ? "C = 1/(1-p)" : ""});
    }
  }
  std::printf("\n%s", table.to_string().c_str());
  return 0;
}

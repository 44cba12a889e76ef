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

#include "bench_common.h"
#include "coding/registry.h"
#include "common/string_util.h"
#include "noise/noise.h"
#include "noise/static_noise.h"
#include "report/table.h"
#include "snn/simulator.h"

int main(int argc, char** argv) {
  using namespace tsnn;
  bench::init(argc, argv);
  std::printf("Ablation | static (parametric) vs dynamic (spike) noise\n");
  const core::ZooWorkload w =
      bench::prepare_workload(core::DatasetKind::kCifar10Like);
  const auto scheme = coding::make_scheme(snn::Coding::kRate);
  const snn::EvalOptions options = bench::eval_options();

  report::Table table({"Noise", "level", "Accuracy (%)"});

  for (const double sigma : {0.0, 0.1, 0.2, 0.3, 0.5}) {
    noise::StaticNoiseConfig cfg;
    cfg.weight_sigma = sigma;
    const snn::SnnModel noisy = noise::with_static_noise(w.conversion.model, cfg);
    const auto r = snn::evaluate(noisy, *scheme, w.test_images, w.test_labels,
                                 nullptr, options);
    table.add_row({"weight sigma", str::format_fixed(sigma, 2), bench::pct(r.accuracy)});
  }

  for (const double q : {0.1, 0.2, 0.3, 0.5}) {
    noise::StaticNoiseConfig cfg;
    cfg.stuck_at_zero = q;
    const snn::SnnModel noisy = noise::with_static_noise(w.conversion.model, cfg);
    const auto r = snn::evaluate(noisy, *scheme, w.test_images, w.test_labels,
                                 nullptr, options);
    table.add_row({"stuck-at-0 q", str::format_fixed(q, 2), bench::pct(r.accuracy)});
  }

  for (const double p : {0.1, 0.2, 0.3, 0.5}) {
    const auto deletion = noise::make_deletion(p);
    const auto r = snn::evaluate(w.conversion.model, *scheme, w.test_images,
                                 w.test_labels, deletion.get(), options);
    table.add_row({"deletion p", str::format_fixed(p, 2), bench::pct(r.accuracy)});
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

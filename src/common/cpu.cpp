#include "common/cpu.h"

#include <cstdio>

#include "common/env.h"
#include "common/string_util.h"

namespace tsnn::cpu {

std::uint32_t detect_features() {
  static const std::uint32_t features = [] {
    std::uint32_t f = 0;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    // __builtin_cpu_supports covers CPUID *and* OS state (XSAVE/YMM), so a
    // positive answer means the instructions are actually executable.
    if (__builtin_cpu_supports("avx2")) {
      f |= kAvx2;
    }
    if (__builtin_cpu_supports("avx512f")) {
      f |= kAvx512;
    }
#endif
    return f;
  }();
  return features;
}

std::uint32_t parse_cpuflags(const std::string& flags) {
  const std::string value = str::trim(flags);
  if (value.empty() || value == "native") {
    return ~0u;
  }
  if (value == "avx2") {
    return kAvx2;
  }
  if (value == "avx512") {
    return kAvx2 | kAvx512;
  }
  if (value != "scalar") {
    std::fprintf(stderr,
                 "warning: TSNN_CPUFLAGS value '%s' not recognized "
                 "(known: scalar, avx2, avx512, native); using scalar\n",
                 value.c_str());
  }
  return 0;
}

std::uint32_t allowed_features() {
  static const std::uint32_t allowed =
      detect_features() & parse_cpuflags(env::get_string("TSNN_CPUFLAGS", ""));
  return allowed;
}

}  // namespace tsnn::cpu

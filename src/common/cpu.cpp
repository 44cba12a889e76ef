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
#endif
    return f;
  }();
  return features;
}

std::uint32_t parse_cpuflags(const std::string& flags) {
  const std::string trimmed = str::trim(flags);
  if (trimmed.empty()) {
    return ~0u;
  }
  std::uint32_t mask = 0;
  // Tokens are separated by '+', ',' or ' ' and case-insensitive.
  std::string token;
  const auto consume = [&mask, &token] {
    if (token.empty()) {
      return;
    }
    const std::string t = str::to_lower(token);
    token.clear();
    if (t == "scalar" || t == "none") {
      return;  // contributes no bits
    }
    if (t == "native" || t == "all") {
      mask = ~0u;
    } else if (t == "avx2") {
      mask |= kAvx2;
    } else {
      std::fprintf(stderr,
                   "warning: TSNN_CPUFLAGS token '%s' not recognized "
                   "(known: scalar, avx2, native)\n",
                   t.c_str());
    }
  };
  for (const char c : trimmed) {
    if (c == '+' || c == ',' || c == ' ') {
      consume();
    } else {
      token.push_back(c);
    }
  }
  consume();
  return mask;
}

std::uint32_t allowed_features() {
  static const std::uint32_t allowed =
      detect_features() & parse_cpuflags(env::get_string("TSNN_CPUFLAGS", ""));
  return allowed;
}

}  // namespace tsnn::cpu

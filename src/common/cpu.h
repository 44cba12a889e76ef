// Runtime CPU feature detection for the SIMD kernel layer.
//
// The simd::KernelDispatch tables (src/simd/kernels.h) are selected once at
// startup from the features the host actually supports, the FFmpeg
// libavutil/cpu way: detect once, mask with an environment override so every
// code path stays testable on any machine, and never execute an instruction
// set the mask does not allow.
//
//   TSNN_CPUFLAGS=scalar     force the scalar reference kernels
//   TSNN_CPUFLAGS=avx2       cap the table at AVX2 (the avx2 table even on
//                            an AVX-512 host)
//   TSNN_CPUFLAGS=avx512     allow the AVX-512 table too
//   TSNN_CPUFLAGS=native     everything the host supports (default)
//
// Any other value warns and forces the scalar kernels. Allowing a feature
// the host lacks is not an error -- the mask is an upper bound,
// intersected with detection -- so CI legs can export one value
// fleet-wide.
#pragma once

#include <cstdint>
#include <string>

namespace tsnn::cpu {

/// Feature bits. Deliberately sparse: only features a registered kernel
/// table actually uses get a bit.
enum Feature : std::uint32_t {
  kAvx2 = 1u << 0,
  kAvx512 = 1u << 1,  ///< AVX-512F
};

/// Features of the executing host (cached after the first call).
std::uint32_t detect_features();

/// Parses a TSNN_CPUFLAGS value, trimmed and taken as a whole, into a
/// feature mask: "" and "native" map to ~0u (everything), "avx2" to kAvx2,
/// "avx512" to kAvx2 | kAvx512, "scalar" to 0, and anything else to 0 with
/// a warning to stderr. Exposed for tests.
std::uint32_t parse_cpuflags(const std::string& flags);

/// detect_features() intersected with the TSNN_CPUFLAGS mask -- the
/// features kernel selection may use (cached after the first call).
std::uint32_t allowed_features();

}  // namespace tsnn::cpu

// Internal sharing between the kernel translation units: the scalar leaf
// functions (reused by vector tables where vectorizing does not pay) and
// the table objects dispatch.cpp registers. Not part of the public API --
// include simd/kernels.h instead.
#pragma once

#include "simd/kernels.h"

namespace tsnn::simd {

void sc_dense_scatter(const DenseScatterCtx& ctx);
void sc_conv_taps(const ConvTapCtx& ctx);
std::size_t sc_threshold_fire(const ThresholdCtx& ctx);
std::size_t sc_burst_fire(const BurstFireCtx& ctx);
void sc_axpy(float* y, const float* x, float a, std::size_t n);
std::size_t sc_mask_compact(const std::uint32_t* src, const std::uint8_t* keep,
                            std::size_t n, std::uint32_t* dst);
void sc_gauss_shifts(const GaussShiftCtx& ctx);
/// One pair of sc_gauss_shifts: out[0..2) from (u1, u2), in libm -- the
/// vector leaves' exact recompute.
void sc_gauss_pair(double u1, double u2, double sigma, std::int32_t limit,
                   std::int32_t* out);

extern const KernelDispatch kScalarTable;

// Defined in kernels_avx2.cpp, which CMake compiles with -mavx2 only on
// toolchains that support it (and kernels_avx512.cpp with -mavx512f); the
// defines keep dispatch.cpp (built without those flags) from referencing a
// table that was never built. Both vector tables are constinit there, so
// neither TU runs code at load: a run-time initializer compiled with a
// vector ISA flag would execute on every host, before dispatch checks a
// CPU bit.
#if defined(TSNN_SIMD_AVX2)
extern const KernelDispatch kAvx2Table;
#endif
#if defined(TSNN_SIMD_AVX512)
extern const KernelDispatch kAvx512Table;
/// The avx512 table's leaves of its own (kernels_avx512.cpp).
void ax_conv_taps(const ConvTapCtx& ctx);
std::size_t ax_threshold_fire(const ThresholdCtx& ctx);
std::size_t ax_burst_fire(const BurstFireCtx& ctx);
#endif

}  // namespace tsnn::simd

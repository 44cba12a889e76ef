// Kernel table selection: best registered table whose feature bits are all
// allowed (detection intersected with TSNN_CPUFLAGS), resolved once, with a
// process-wide override hook for tests and per-ISA benchmarks.
#include "simd/kernels.h"

#include <atomic>

#include "common/cpu.h"
#include "simd/kernels_internal.h"

namespace tsnn::simd {
namespace {

// Best first; selection walks this in order.
const KernelDispatch* const kRegistry[] = {
#if defined(TSNN_SIMD_AVX512)
    &kAvx512Table,
#endif
#if defined(TSNN_SIMD_AVX2)
    &kAvx2Table,
#endif
    &kScalarTable,
};

// The best registered table the allowed features can run.
const KernelDispatch& resolved() {
  static const KernelDispatch* const table = [] {
    const std::uint32_t allowed = cpu::allowed_features();
    for (const KernelDispatch* t : kRegistry) {
      if ((t->features & ~allowed) == 0) {
        return t;
      }
    }
    return &kScalarTable;
  }();
  return *table;
}

std::atomic<const KernelDispatch*> g_active{nullptr};

}  // namespace

const KernelDispatch& kernels() {
  const KernelDispatch* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    // Benign race: concurrent first calls all store the same pointer.
    t = &resolved();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

std::string active_isa() { return kernels().isa; }

const KernelDispatch& scalar_kernels() { return kScalarTable; }

std::vector<const KernelDispatch*> runnable_tables() {
  const std::uint32_t allowed = cpu::allowed_features();
  std::vector<const KernelDispatch*> out;
  for (const KernelDispatch* t : kRegistry) {
    if ((t->features & ~allowed) == 0) {
      out.push_back(t);
    }
  }
  return out;
}

const KernelDispatch* find_table(const std::string& isa) {
  for (const KernelDispatch* t : kRegistry) {
    if (isa == t->isa) {
      return t;
    }
  }
  return nullptr;
}

ScopedKernelOverride::ScopedKernelOverride(const KernelDispatch& table)
    : saved_(&kernels()) {
  g_active.store(&table, std::memory_order_release);
}

ScopedKernelOverride::~ScopedKernelOverride() {
  g_active.store(saved_, std::memory_order_release);
}

}  // namespace tsnn::simd

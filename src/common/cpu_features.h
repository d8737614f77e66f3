// Run-time CPU feature probes for kernels built twice: once for the
// baseline ISA and once under a target attribute, with one picked per
// process. Both instances compute the same IEEE operations in the same
// order (no FMA, so no contraction), so the choice never changes a bit.
#pragma once

#if defined(__x86_64__) || defined(__i386__)
/// 1 where kernels may carry an [[gnu::target("avx2")]] instance.
#define VIADUCT_AVX2_DISPATCH 1
#else
#define VIADUCT_AVX2_DISPATCH 0
#endif

namespace viaduct {

/// True when this CPU runs AVX2 code; always false on non-x86 builds.
/// Probed once per process.
bool cpuHasAvx2();

}  // namespace viaduct

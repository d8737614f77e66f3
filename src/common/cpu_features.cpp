#include "common/cpu_features.h"

namespace viaduct {

bool cpuHasAvx2() {
#if VIADUCT_AVX2_DISPATCH
  static const bool avx2 = [] {
    __builtin_cpu_init();  // may run before libgcc's own constructor
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

}  // namespace viaduct

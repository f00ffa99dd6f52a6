#include "src/matrix/kernel_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "src/matrix/kernels.h"

namespace triclust {
namespace {

/// -1 = no scope installed on this thread; otherwise a KernelMode value.
thread_local int tls_mode = -1;

/// -1 = unprobed; 0/1 = cached TRICLUST_FORCE_SCALAR verdict.
std::atomic<int> g_force_scalar{-1};

bool ProbeForceScalar() {
  const char* value = std::getenv("TRICLUST_FORCE_SCALAR");
  return value != nullptr && value[0] != '\0' &&
         std::strcmp(value, "0") != 0;
}

}  // namespace

bool ForceScalarActive() {
  int cached = g_force_scalar.load(std::memory_order_relaxed);
  if (cached < 0) {
    cached = ProbeForceScalar() ? 1 : 0;
    g_force_scalar.store(cached, std::memory_order_relaxed);
  }
  return cached != 0;
}

KernelMode ActiveKernelMode() {
  if (ForceScalarActive()) return KernelMode::kScalar;
  if (tls_mode >= 0) return static_cast<KernelMode>(tls_mode);
  return KernelMode::kAuto;
}

bool CpuSupportsAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

bool Avx2KernelsCompiled() { return kernels::Avx2KernelsCompiled(); }

KernelDispatch ActiveDispatch() {
  KernelDispatch d;
  if (ActiveKernelMode() == KernelMode::kScalar) return d;
  d.fixed_k = true;
  d.avx2 = CpuSupportsAvx2() && Avx2KernelsCompiled();
  return d;
}

ScopedKernelMode::ScopedKernelMode(KernelMode mode) : previous_(tls_mode) {
  tls_mode = static_cast<int>(mode);
}

ScopedKernelMode::~ScopedKernelMode() { tls_mode = previous_; }

namespace internal {
void ReprobeKernelEnvForTesting() {
  g_force_scalar.store(-1, std::memory_order_relaxed);
}
}  // namespace internal

namespace kernels {

/// Selection order within a family: the AVX2 body beats the fixed-k unroll
/// beats the generic reference. Specialized bodies exist only for the
/// shapes a program runs — k = 2 and 3, and MatMul/AtB only when k×k — so
/// every other shape lands on the generic body, which keeps every Select*
/// safe for arbitrary shapes.

SpMMRowsFn SelectSpMMRows(size_t k) {
  const KernelDispatch d = ActiveDispatch();
  switch (k) {
    case 2:
      if (d.avx2) return Avx2SpMMRowsK2;
      if (d.fixed_k) return SpMMRowsK2;
      break;
    case 3:
      if (d.avx2) return Avx2SpMMRowsK3;
      if (d.fixed_k) return SpMMRowsK3;
      break;
    default:
      break;
  }
  return GenericSpMMRows;
}

AtBAccumulateFn SelectAtBAccumulate(size_t ka, size_t kb) {
  const KernelDispatch d = ActiveDispatch();
  if (ka == kb) {
    switch (ka) {
      case 2:
        if (d.avx2) return Avx2AtBAccumulateK2;
        if (d.fixed_k) return AtBAccumulateK2;
        break;
      case 3:
        if (d.avx2) return Avx2AtBAccumulateK3;
        if (d.fixed_k) return AtBAccumulateK3;
        break;
      default:
        break;
    }
  }
  return GenericAtBAccumulate;
}

MatMulRowsFn SelectMatMulRows(size_t p_dim, size_t n) {
  const KernelDispatch d = ActiveDispatch();
  if (p_dim == n) {
    switch (p_dim) {
      case 2:
        if (d.fixed_k) return MatMulRowsK2;
        break;
      case 3:
        if (d.fixed_k) return MatMulRowsK3;
        break;
      default:
        break;
    }
  }
  return GenericMatMulRows;
}

ABtRowsFn SelectABtRows(size_t p_dim) {
  const KernelDispatch d = ActiveDispatch();
  switch (p_dim) {
    case 2:
      if (d.fixed_k) return ABtRowsK2;
      break;
    case 3:
      if (d.fixed_k) return ABtRowsK3;
      break;
    default:
      break;
  }
  return GenericABtRows;
}

MulUpdateRangeFn SelectMulUpdateRange() {
  return ActiveDispatch().avx2 ? Avx2MulUpdateRange : GenericMulUpdateRange;
}

SpCrossRowsFn SelectSpCrossRows(size_t k) {
  const KernelDispatch d = ActiveDispatch();
  switch (k) {
    case 2:
      if (d.fixed_k) return SpCrossRowsK2;
      break;
    case 3:
      if (d.fixed_k) return SpCrossRowsK3;
      break;
    default:
      break;
  }
  return GenericSpCrossRows;
}

}  // namespace kernels
}  // namespace triclust

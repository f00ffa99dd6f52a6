#ifndef TRICLUST_SRC_MATRIX_KERNEL_DISPATCH_H_
#define TRICLUST_SRC_MATRIX_KERNEL_DISPATCH_H_

namespace triclust {

/// Runtime kernel-specialization policy for the matrix kernels of
/// src/matrix/ops.h.
///
/// Every kernel keeps the generic double-loop of ops.cc as its reference
/// implementation (the bitwise reproducibility oracle of the whole repo —
/// see docs/ARCHITECTURE.md "Kernel dispatch"). On top of it, ops.cc may
/// select specialized bodies for the hot shapes of the paper (k = 2–4
/// cluster columns) and for the CPU at hand:
///
///  - fixed-k bodies: fully unrolled loops with the k-wide (or k×k)
///    accumulator held in registers. Same multiply/add sequence per output
///    element as the generic loop, therefore BIT-IDENTICAL to it.
///  - AVX2 bodies: element-parallel vector code where each output element
///    still sees the exact scalar operation sequence (independent lanes,
///    separate mul + add — never FMA — and IEEE per-lane max/div/sqrt), so
///    they are BIT-IDENTICAL to the generic loop as well.
///
/// KernelMode picks which tiers a kernel call may use. Both modes give the
/// same bits, so results are indistinguishable from the historical generic
/// loops at every thread width — the serving and replay bitwise
/// self-checks hold with no configuration.
enum class KernelMode {
  /// Fixed-k + AVX2 specializations (the default). Results are bit-for-bit
  /// those of kScalar.
  kAuto = 0,
  /// Generic reference loops only — the oracle the equivalence tests pin
  /// every other tier against.
  kScalar = 1,
};

/// The tiers a kernel call may actually use, after resolving the mode
/// against the CPU probe and the TRICLUST_FORCE_SCALAR override. Field
/// implication: avx2 set ⇒ fixed_k set.
struct KernelDispatch {
  /// Unrolled fixed-k scalar bodies.
  bool fixed_k = false;
  /// AVX2 element-parallel bodies (requires an AVX2 CPU and an
  /// AVX2-compiled kernel TU).
  bool avx2 = false;
};

/// The mode the next kernel call on this thread resolves to:
///   1. kScalar when the TRICLUST_FORCE_SCALAR environment variable is set
///      to anything but "0" (probed once per process; the CI fallback leg
///      and "reproduce exactly anywhere" escape hatch — trumps everything);
///   2. otherwise the innermost ScopedKernelMode on this thread, if any;
///   3. otherwise kAuto.
KernelMode ActiveKernelMode();

/// ActiveKernelMode() intersected with the CPU capability probe — what a
/// kernel selection actually uses. Cheap (an atomic load + a TLS read);
/// ops.cc calls it once per kernel invocation, on the calling thread, so
/// pool workers inherit the fit thread's decision.
KernelDispatch ActiveDispatch();

/// CPU capability probe (cached after the first call).
bool CpuSupportsAvx2();

/// True when the AVX2 kernel TU was actually compiled with AVX2 (false on
/// non-x86 targets, where its symbols forward to the generic bodies).
bool Avx2KernelsCompiled();

/// True when TRICLUST_FORCE_SCALAR pins every kernel to the generic path.
bool ForceScalarActive();

/// RAII: installs `mode` as the calling thread's kernel mode for the
/// scope's lifetime (innermost wins, previous state restored on
/// destruction). THREAD-LOCAL, mirroring ScopedThreadBudget: concurrent
/// fits with different kernel modes never interfere. The solvers install
/// TriClusterConfig::kernel_mode for the duration of each fit.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(KernelMode mode);
  ~ScopedKernelMode();
  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;

 private:
  int previous_;
};

namespace internal {
/// Re-reads TRICLUST_FORCE_SCALAR (tests flip it mid-process; production
/// code treats the probe as process-constant).
void ReprobeKernelEnvForTesting();
}  // namespace internal

}  // namespace triclust

#endif  // TRICLUST_SRC_MATRIX_KERNEL_DISPATCH_H_

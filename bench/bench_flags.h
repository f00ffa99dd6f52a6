#ifndef TRICLUST_BENCH_BENCH_FLAGS_H_
#define TRICLUST_BENCH_BENCH_FLAGS_H_

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace triclust {
namespace bench_flags {

/// \file
/// google-benchmark-compatible command-line surface and JSON reporter for
/// the plain (non-libbenchmark) bench_* executables, so one CI invocation
/// style drives every bench binary and one artifact shape feeds the
/// statistical harness (tools/bench_runner.py).
///
/// ## The JSON report contract
///
/// Every bench binary emits a report of the shape
///
/// ```json
/// {
///   "context": {
///     "schema": "triclust-bench/1",
///     "executable": "bench_serving",
///     "num_cpus": 16,
///     "work_scale": 0.01,
///     "repetitions": 1,
///     "force_scalar": false
///   },
///   "benchmarks": [
///     {
///       "name": "serving/throughput/campaigns:2/threads:1",
///       "run_name": "serving/throughput/campaigns:2/threads:1",
///       "run_type": "iteration",
///       "iterations": 1,
///       "repetition_index": 0,
///       "repetitions": 1,
///       "real_time": 12.5,
///       "cpu_time": 12.5,
///       "time_unit": "ms",
///       "tweets_per_second": 48000.0
///     }
///   ]
/// }
/// ```
///
/// tools/bench_runner.py depends on exactly these fields; the normative
/// description lives in docs/BENCHMARK.md ("Report JSON schema"). The
/// ground rules:
///
/// - `context.schema` names this per-run shape (`triclust-bench/1`) and
///   is bumped on any incompatible change. Reports from the real
///   google-benchmark library (bench_kernels) carry no `schema` key; the
///   runner accepts both.
/// - `name` identifies one measured scenario. Names are hierarchical
///   `area/scenario/knob:value/...` paths, stable across runs — they are
///   the key on which tools/bench_gate.py joins two reports.
/// - `real_time` is wall time of the measured section in `time_unit`
///   (always `"ms"` here). `cpu_time` mirrors `real_time` (these benches
///   measure wall time; the field exists for gbench tooling parity).
/// - Counters are extra numeric fields inlined into the entry (the
///   google-benchmark convention). Naming: `snake_case`, with an
///   explicit unit suffix (`_ms`, `_per_second`, `_pct`) unless the value
///   is a dimensionless ratio/count (`speedup_vs_serial`, `iterations`).
///   Counters derived from deterministic computation (accuracy, nnz)
///   aggregate to zero variance in the harness; timing counters do not.
/// - `run_type` is `"iteration"` for every entry; aggregate statistics
///   are the *runner's* job, never computed in-binary. Consumers must
///   skip entries with `run_type == "aggregate"` anyway (bench_kernels
///   emits them under its native `--benchmark_repetitions`).
/// - A binary runs its sweep once, so `repetitions` is always 1 and
///   `repetition_index` always 0; they keep the google-benchmark shape.
///   Repetitions are fresh processes, which the runner starts and counts
///   (`tools/bench_runner.py --repetitions`).
///
/// ## Flags
///
///   --benchmark_min_time=0.01x   work scale: fraction of the default
///                                work per measurement (suffix `x`, as in
///                                google-benchmark's per-iteration form).
///                                Values ≥ 1 keep the full default sweep.
///   --benchmark_out=<path>      write the JSON report to <path>; the
///                                console always shows text tables.
///
/// Unknown --benchmark_* flags are ignored (forward compatibility with CI
/// runner scripts); anything else aborts with a usage message.
struct Flags {
  /// Multiplier in (0, 1] applied to solver iterations / sweep sizes.
  double work_scale = 1.0;
  std::string out_path;

  /// `base` iterations scaled down for smoke runs, never below 1.
  int ScaledIters(int base) const {
    const double scaled = static_cast<double>(base) * work_scale;
    return scaled < 1.0 ? 1 : static_cast<int>(scaled);
  }
  /// Milliseconds scaled down for smoke runs (pacing intervals).
  double ScaledMs(double base_ms) const { return base_ms * work_scale; }
};

inline Flags Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--benchmark_min_time=", 0) == 0) {
      // Only the `<frac>x` (per-iteration multiplier) form scales work.
      // The seconds forms (`0.5s` or a bare double) ask for a *minimum
      // runtime*, which these fixed-sweep benches cannot enforce — treat
      // them as "run the full default sweep" rather than silently
      // reshaping it.
      std::string value = value_of("--benchmark_min_time=");
      if (!value.empty() && value.back() == 'x') {
        value.pop_back();
        const double parsed = std::atof(value.c_str());
        if (parsed > 0.0 && parsed < 1.0) flags.work_scale = parsed;
      }
    } else if (arg.rfind("--benchmark_out=", 0) == 0) {
      flags.out_path = value_of("--benchmark_out=");
    } else if (arg.rfind("--benchmark_", 0) == 0) {
      // Ignored for compatibility with generic benchmark runners.
    } else {
      std::cerr << "unknown flag: " << arg
                << "\nsupported: --benchmark_min_time=<frac>x "
                   "--benchmark_out=<path>\n";
      std::exit(2);
    }
  }
  return flags;
}

/// Collects named measurements and renders them in google-benchmark's JSON
/// report shape ({"context": ..., "benchmarks": [...]}), so artifact
/// tooling written for libbenchmark output (perf-trajectory dashboards,
/// regression differs, tools/bench_runner.py) ingests these reports
/// unchanged. The emitted fields are the contract documented at the top
/// of this header.
class Reporter {
 public:
  explicit Reporter(std::string executable, Flags flags)
      : executable_(std::move(executable)), flags_(std::move(flags)) {}

  /// Records one measurement. `real_ms` is wall time of the measured
  /// section; `counters` are additional rate/ratio metrics
  /// ({name, value} pairs — see the counter-naming contract above).
  void Add(const std::string& name, double real_ms,
           const std::vector<std::pair<std::string, double>>& counters = {}) {
    entries_.push_back({name, real_ms, counters});
  }

  /// Writes the JSON report to --benchmark_out (if set). Returns false if
  /// the output file could not be written — callers should exit non-zero
  /// so CI fails loudly.
  bool Write() const {
    if (flags_.out_path.empty()) return true;
    std::ofstream out(flags_.out_path);
    if (!out) {
      std::cerr << "cannot write benchmark report: " << flags_.out_path
                << "\n";
      return false;
    }
    out << Json();
    return out.good();
  }

 private:
  struct Entry {
    std::string name;
    double real_ms = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') out.push_back('\\');
      out.push_back(ch);
    }
    return out;
  }

  /// TRICLUST_FORCE_SCALAR pins every kernel to the scalar bodies (see
  /// src/matrix/kernel_dispatch.h); recorded so a report can never be
  /// mistaken for the dispatched configuration it did not measure.
  static bool ForceScalarActive() {
    const char* env = std::getenv("TRICLUST_FORCE_SCALAR");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
  }

  std::string Json() const {
    std::ostringstream os;
    os << "{\n  \"context\": {\n"
       << "    \"schema\": \"triclust-bench/1\",\n"
       << "    \"executable\": \"" << Escaped(executable_) << "\",\n"
       << "    \"num_cpus\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "    \"work_scale\": " << flags_.work_scale << ",\n"
       << "    \"repetitions\": 1,\n"
       << "    \"force_scalar\": " << (ForceScalarActive() ? "true" : "false")
       << "\n"
       << "  },\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      os << "    {\n"
         << "      \"name\": \"" << Escaped(e.name) << "\",\n"
         << "      \"run_name\": \"" << Escaped(e.name) << "\",\n"
         << "      \"run_type\": \"iteration\",\n"
         << "      \"iterations\": 1,\n"
         << "      \"repetition_index\": 0,\n"
         << "      \"repetitions\": 1,\n"
         << "      \"real_time\": " << e.real_ms << ",\n"
         << "      \"cpu_time\": " << e.real_ms << ",\n"
         << "      \"time_unit\": \"ms\"";
      for (const auto& counter : e.counters) {
        os << ",\n      \"" << Escaped(counter.first)
           << "\": " << counter.second;
      }
      os << "\n    }" << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
  }

  std::string executable_;
  Flags flags_;
  std::vector<Entry> entries_;
};

/// Shared main() body of every plain bench binary: parses the flag
/// surface, runs `body(reporter, flags)` once, and writes the report.
/// Returns the process exit code.
///
/// ```cpp
/// int main(int argc, char** argv) {
///   return triclust::bench_flags::BenchMain(
///       argc, argv, "bench_scalability",
///       [](triclust::bench_flags::Reporter& reporter,
///          const triclust::bench_flags::Flags& flags) {
///         triclust::Run(reporter, flags);
///       });
/// }
/// ```
template <typename Body>
int BenchMain(int argc, char** argv, const std::string& executable,
              Body body) {
  const Flags flags = Parse(argc, argv);
  Reporter reporter(executable, flags);
  body(reporter, flags);
  return reporter.Write() ? 0 : 1;
}

}  // namespace bench_flags
}  // namespace triclust

#endif  // TRICLUST_BENCH_BENCH_FLAGS_H_

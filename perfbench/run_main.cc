// Measured program of the repository benchmark.
//
//   perfbench_run --workload <name> --inputs <dir> --work <dir>
//                 --seconds <s> --trace <0|1> --out <file>
//
// Reads the inputs perfbench_gen wrote into <dir>, runs passes of the
// workload until the timed sections add up to <s> seconds (and at least
// three passes, or one untraced-traced pair when traced), and writes
// every raw sample, span and process counter to <file> as JSON. It
// computes no statistics: perfbench/summary.py does, so the summary code
// is tested on its own (perfbench/test_summary.py).
//
// An untraced run (--trace 0) makes plain passes and gives the end-to-end
// numbers. A traced run (--trace 1) alternates an untraced and a traced
// pass, so the tracing overhead is measured inside one process; the
// traced pass records spans and then probes every fit's layer calls.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/matrix/kernel_dispatch.h"
#include "src/util/file_util.h"
#include "src/util/fs.h"
#include "src/util/logging.h"

namespace perfbench {
namespace {

// Passes per run at least. An untraced run reports medians over passes,
// so it needs three for one slow pass not to move them (each pass also
// sets up, so three set-ups feed the set-up median). A traced run makes at
// least one untraced-traced pair.
size_t MinPasses(bool traced) { return traced ? 2 : 3; }

class Json {
 public:
  std::string str() const { return out_.str(); }
  Json& Raw(const std::string& text) {
    out_ << text;
    return *this;
  }
  Json& Num(double value) {
    if (std::isfinite(value)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      out_ << buf;
    } else {
      out_ << "null";
    }
    return *this;
  }
  Json& Str(const std::string& value) {
    out_ << '"';
    for (const char ch : value) {
      if (ch == '"' || ch == '\\') {
        out_ << '\\' << ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        out_ << ' ';
      } else {
        out_ << ch;
      }
    }
    out_ << '"';
    return *this;
  }
  Json& Key(const std::string& key) {
    Sep();
    Str(key);
    out_ << ':';
    fresh_ = true;
    return *this;
  }
  Json& Field(const std::string& key, double value) {
    Key(key);
    return Num(value).Done();
  }
  Json& Open(char bracket) {
    Sep();
    out_ << bracket;
    fresh_ = true;
    return *this;
  }
  Json& Close(char bracket) {
    out_ << bracket;
    fresh_ = false;
    return *this;
  }
  Json& Array(const std::string& key, const std::vector<double>& values) {
    Key(key).Open('[');
    for (double v : values) Sep().Num(v).Done();
    return Close(']');
  }
  /// Marks the end of a value inside an array or object.
  Json& Done() {
    fresh_ = false;
    return *this;
  }
  Json& Sep() {
    if (!fresh_) out_ << ',';
    fresh_ = true;
    return *this;
  }

 private:
  std::ostringstream out_;
  bool fresh_ = true;
};

void WriteSetup(const SetupTimes& s, Json* j) {
  j->Open('{');
  j->Field("read_tsv_ms", s.read_tsv_ms);
  j->Field("vocab_fit_ms", s.vocab_fit_ms);
  j->Field("prior_ms", s.prior_ms);
  j->Field("register_ms", s.register_ms);
  j->Array("add_campaign_ms", s.add_campaign_ms);
  j->Close('}');
}

void WriteCalls(const CallTimes& c, Json* j) {
  j->Open('{');
  j->Field("update_sp", c.update_sp);
  j->Field("update_hp", c.update_hp);
  j->Field("update_su", c.update_su);
  j->Field("update_hu", c.update_hu);
  j->Field("update_sf", c.update_sf);
  j->Field("objective", c.objective);
  j->Field("spmm", c.spmm);
  j->Field("trifactor_loss", c.trifactor_loss);
  j->Field("parallel_for_us", c.parallel_for_us);
  j->Close('}');
}

void WritePass(const PassResult& p, Json* j) {
  j->Open('{');
  j->Key("traced").Raw(p.traced ? "true" : "false").Done();
  j->Key("setups").Open('[');
  for (const SetupTimes& s : p.setups) WriteSetup(s, j);
  j->Close(']');
  j->Array("interval_ms", p.interval_ms);
  j->Array("advance_ms", p.advance_ms);
  j->Array("solve_ms", p.solve_ms);
  j->Array("save_ms", p.save_ms);
  j->Array("checkpoint_kb", p.checkpoint_kb);
  j->Field("tweets", static_cast<double>(p.tweets));
  j->Field("ingested", static_cast<double>(p.ingested));
  j->Array("emit_ms", p.emit_ms);
  j->Field("fits_attempted", static_cast<double>(p.fits_attempted));
  j->Field("fits_failed", static_cast<double>(p.fits_failed));
  j->Field("iterations", static_cast<double>(p.iterations));
  j->Field("converged", static_cast<double>(p.converged));
  j->Field("tweet_accuracy", p.tweet_accuracy);
  j->Field("user_accuracy", p.user_accuracy);
  j->Field("user_cpu_s", p.user_cpu_s);
  j->Field("sys_cpu_s", p.sys_cpu_s);
  j->Field("voluntary_ctx", static_cast<double>(p.voluntary_ctx));
  j->Field("involuntary_ctx", static_cast<double>(p.involuntary_ctx));
  j->Field("width", p.width);
  j->Field("os_threads", p.os_threads);
  // Spans as [name, start_us, end_us, dur_us, parent, interval].
  j->Key("spans").Open('[');
  for (const Span& s : p.spans) {
    j->Open('[').Str(s.name).Done();
    j->Sep().Num(s.start_us).Done();
    j->Sep().Num(s.end_us).Done();
    j->Sep().Num(s.dur_us).Done();
    j->Sep().Num(s.parent).Done();
    j->Sep().Num(s.interval).Done();
    j->Close(']');
  }
  j->Close(']');
  j->Key("probes").Open('[');
  for (const FitProbe& f : p.probes) {
    j->Open('{');
    j->Field("solve_ms", f.solve_ms);
    j->Field("iterations", f.iterations);
    j->Field("rows", static_cast<double>(f.rows));
    j->Field("width", f.width);
    j->Field("emit_ms", f.emit_ms);
    j->Key("calls");
    WriteCalls(f.calls, j);
    j->Close('}');
  }
  j->Close(']');
  j->Key("errors").Open('[');
  for (const std::string& e : p.errors) j->Sep().Str(e).Done();
  j->Close(']');
  j->Close('}');
}

std::string CpuModel() {
  auto text = triclust::GetDefaultFileSystem()->ReadFileToString(
      "/proc/cpuinfo");
  if (!text.ok()) return "unknown";
  std::istringstream lines(text.value());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Process counters, read from outside the library at the end of the run.
void WriteCounters(Json* j) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  j->Open('{');
  j->Field("user_cpu_s",
           usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6);
  j->Field("sys_cpu_s", usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6);
  j->Field("voluntary_ctx", static_cast<double>(usage.ru_nvcsw));
  j->Field("involuntary_ctx", static_cast<double>(usage.ru_nivcsw));
  j->Field("max_rss_kb", static_cast<double>(usage.ru_maxrss));
  j->Field("os_threads", CountThreads());
  j->Field("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  j->Key("cpu_model").Str(CpuModel()).Done();
  j->Key("avx2_kernels")
      .Raw(triclust::ActiveDispatch().avx2 ? "true" : "false")
      .Done();
  j->Key("force_scalar")
      .Raw(triclust::ForceScalarActive() ? "true" : "false")
      .Done();
  j->Close('}');
}

int Usage() {
  std::cerr << "usage: perfbench_run --workload <" << WorkloadNames()
            << "> --inputs <dir> --work <dir> --seconds <s> --trace <0|1> "
               "--out <file>\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload_name, inputs_dir, work_dir, out_path;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--inputs") {
      inputs_dir = value;
    } else if (flag == "--work") {
      work_dir = value;
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return Usage();
    }
  }
  Workload workload;
  if (argc != 13 || !ParseWorkload(workload_name, &workload) ||
      inputs_dir.empty() || work_dir.empty() || out_path.empty() ||
      seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  // Divergence and degradation warnings still print; routine info does not.
  triclust::SetLogLevel(triclust::LogLevel::kWarning);
  const Inputs inputs{inputs_dir, work_dir};
  if (!triclust::CreateDirectories(work_dir).ok()) {
    std::cerr << "perfbench_run: cannot create " << work_dir << "\n";
    return 1;
  }

  std::vector<PassResult> passes;
  double timed_s = 0.0;
  const size_t min_passes = MinPasses(trace == 1);
  // A traced run alternates untraced and traced passes and always ends on
  // a traced one, so every untraced pass has its traced twin.
  while (timed_s < seconds || passes.size() < min_passes ||
         (trace == 1 && passes.size() % 2 == 1)) {
    const bool traced = trace == 1 && passes.size() % 2 == 1;
    passes.push_back(RunPass(workload, inputs, traced));
    timed_s += passes.back().timed_s();
    std::cerr << "perfbench_run: " << workload_name << " pass "
              << passes.size() << (traced ? " (traced)" : "") << ": "
              << passes.back().timed_s() << " s timed, set-up "
              << passes.back().setups[0].total_s() << " s\n";
  }

  Json j;
  j.Open('{');
  j.Key("workload").Str(workload_name).Done();
  j.Field("trace", trace);
  j.Key("passes").Open('[');
  for (const PassResult& p : passes) WritePass(p, &j);
  j.Close(']');
  j.Key("counters");
  WriteCounters(&j);
  j.Close('}');
  const std::string text = j.str() + "\n";
  const triclust::Status written =
      triclust::AtomicWriteFile(out_path, [&](std::ostream* os) {
        *os << text;
        return os->good() ? triclust::Status::OK()
                          : triclust::Status::IoError("write " + out_path);
      });
  if (!written.ok()) {
    std::cerr << "perfbench_run: " << written.ToString() << "\n";
    return 1;
  }
  return 0;
}

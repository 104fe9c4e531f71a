// roundbench: times whole plan -> tally rounds of one named workload.
//
//   roundbench --workload NAME --seed N --seconds S --trace 0|1
//              [--scale full|tiny] [--work-root DIR] [--spans FILE]
//
// --trace 0 runs the workload as real distributed rounds
// (cli::run_distributed_round: one tormet_node process per plan node,
// talking TCP on loopback) in a closed loop with one round in flight,
// after one untimed warm-up round, until S seconds have passed. It reports
// the end-to-end metrics. --trace 1 runs the same plan in-process with
// every layer boundary traced, beside untraced in-process rounds and
// distributed rounds, and reports the per-layer metrics.
//
// Every round's tally bytes are compared with cli::run_reference_round,
// computed once per run and untimed. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; a human summary
// goes to stderr. Rendered inputs and round directories live in one
// temporary directory under --work-root, removed at exit.
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/cli/orchestrator.h"
#include "tracing.h"
#include "workloads.h"

namespace {

namespace cli = tormet::cli;
namespace fs = std::filesystem;
using clock_type = std::chrono::steady_clock;

/// Set-up renders the inputs at least this many times and for at least
/// this long; setup_s is the median render time.
constexpr int k_setup_min_repeats = 3;
constexpr double k_setup_min_seconds = 1.0;
/// A distributed round that runs longer than this counts as failed.
constexpr int k_round_timeout_ms = 60'000;
/// The traced mode fails when more of the traced round than this share is
/// outside every layer span: the split would no longer explain the round.
constexpr double k_max_unattributed_share = 0.05;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  roundbench::scale size = roundbench::scale::full;
  std::string work_root = ".";
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "roundbench: " << why << "\n"
            << "usage: roundbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--work-root DIR] "
               "[--spans FILE]\n";
  std::exit(2);
}

options parse_args(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--scale") {
      if (value != "full" && value != "tiny") usage("--scale takes full|tiny");
      opt.size = value == "full" ? roundbench::scale::full
                                 : roundbench::scale::tiny;
    } else if (arg == "--work-root") {
      opt.work_root = value;
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!roundbench::is_workload(opt.workload)) {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

rusage children_usage() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return ru;
}

double cpu_seconds(const rusage& ru) {
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// A fresh directory under `root`, removed with everything in it when the
/// object goes away.
class temp_dir {
 public:
  explicit temp_dir(const std::string& root) {
    fs::create_directories(root);
    std::string tmpl = (fs::absolute(root) / "roundbench-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error{"mkdtemp failed under " + root};
    }
    path_ = tmpl;
  }
  ~temp_dir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  temp_dir(const temp_dir&) = delete;
  temp_dir& operator=(const temp_dir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Prints the tail of every node log of a failed round to stderr.
void dump_node_logs(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator{dir}) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("node-", 0) != 0) continue;
    std::ifstream in{entry.path()};
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    const std::size_t from = lines.size() > 5 ? lines.size() - 5 : 0;
    for (std::size_t i = from; i < lines.size(); ++i) {
      std::cerr << "  " << name << ": " << lines[i] << "\n";
    }
  }
}

struct round_sample {
  bool ok = false;
  double wall_s = 0;
  double cpu_s = 0;
};

class bench {
 public:
  bench(const options& opt, const std::string& workdir)
      : opt_{opt}, workdir_{workdir}, node_bin_{cli::sibling_node_binary()} {
    if (node_bin_.empty()) {
      throw std::runtime_error{"tormet_node not found beside roundbench"};
    }
  }

  /// Renders the inputs repeatedly into fresh directories and keeps the
  /// last rendering; returns the median render time.
  double set_up() {
    std::vector<double> times;
    std::string previous;
    const auto start = clock_type::now();
    for (int k = 0; k < k_setup_min_repeats ||
                    seconds_since(start) < k_setup_min_seconds;
         ++k) {
      const std::string dir = workdir_ + "/inputs-" + std::to_string(k);
      const auto t0 = clock_type::now();
      plan_ = roundbench::render(opt_.workload, opt_.seed, opt_.size, dir);
      times.push_back(seconds_since(t0));
      if (!previous.empty()) fs::remove_all(previous);
      previous = dir;
    }
    reference_ = cli::run_reference_round(plan_);
    return median(times);
  }

  /// One distributed round on fresh ports in a fresh directory. The CPU
  /// time is the getrusage(RUSAGE_CHILDREN) delta: the node processes are
  /// this process's only children.
  round_sample distributed_round() {
    cli::deployment_plan plan = plan_;
    cli::assign_free_ports(plan);
    const std::string dir = workdir_ + "/round-" + std::to_string(attempted_);
    fs::create_directories(dir);
    plan.tally_path = dir + "/tally.out";
    round_sample s;
    const rusage ru0 = children_usage();
    const auto t0 = clock_type::now();
    try {
      const cli::distributed_round_result r =
          cli::run_distributed_round(plan, node_bin_, dir, k_round_timeout_ms);
      s.wall_s = seconds_since(t0);
      s.ok = check("distributed round", r.tally);
    } catch (const std::exception& e) {
      s.wall_s = seconds_since(t0);
      std::cerr << "roundbench: distributed round failed: " << e.what() << "\n";
      count(false);
    }
    s.cpu_s = cpu_seconds(children_usage()) - cpu_seconds(ru0);
    if (!s.ok) dump_node_logs(dir);
    fs::remove_all(dir);
    return s;
  }

  /// One in-process round (traced when `rec` is set), timed and checked.
  roundbench::inproc_result inproc_round(roundbench::span_recorder* rec,
                                         double& wall_s) {
    const auto t0 = clock_type::now();
    roundbench::inproc_result r =
        roundbench::run_inproc_round(plan_, workdir_, rec);
    wall_s = seconds_since(t0);
    check(rec != nullptr ? "traced in-process round" : "in-process round",
          r.tally);
    return r;
  }

  void fail(const std::string& why) {
    std::cerr << "roundbench: " << why << "\n";
    correct_ = false;
  }

  [[nodiscard]] bool correct() const noexcept { return correct_ && failed_ == 0; }
  [[nodiscard]] int attempted() const noexcept { return attempted_; }
  [[nodiscard]] int failed() const noexcept { return failed_; }

 private:
  bool check(const char* what, const std::string& tally) {
    const bool ok = tally == reference_;
    if (!ok) {
      std::cerr << "roundbench: " << what
                << " tally differs from the reference round\n";
    }
    count(ok);
    return ok;
  }
  void count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  const options& opt_;
  std::string workdir_;
  std::string node_bin_;
  cli::deployment_plan plan_;
  std::string reference_;
  int attempted_ = 0;
  int failed_ = 0;
  bool correct_ = true;
};

struct metric_value {
  std::string name;
  std::string unit;
  double value;
};

void print_result(const bench& b, const std::vector<metric_value>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              b.correct() ? "true" : "false", b.attempted(), b.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// --trace 0: warm-up, then distributed rounds until the time is up.
std::vector<metric_value> run_end_to_end(bench& b, const options& opt,
                                         double setup_s) {
  if (!b.distributed_round().ok) b.fail("warm-up round failed");
  std::vector<double> wall, cpu;
  const auto t0 = clock_type::now();
  int rounds = 0;
  while (rounds == 0 || seconds_since(t0) < opt.seconds) {
    const round_sample s = b.distributed_round();
    ++rounds;
    if (!s.ok) continue;
    wall.push_back(s.wall_s);
    cpu.push_back(s.cpu_s);
  }
  // ru_maxrss of RUSAGE_CHILDREN is the largest peak RSS of any reaped
  // child; this process runs one workload, so every child is a node of it.
  const double peak_rss_mb =
      static_cast<double>(children_usage().ru_maxrss) / 1024.0;
  std::cerr << "roundbench: " << opt.workload << " seed " << opt.seed << ": "
            << wall.size() << " of " << rounds
            << " timed rounds behind the medians (+1 warm-up); round_s "
            << median(wall) << ", cpu_s " << median(cpu)
            << ", peak_rss_mb " << peak_rss_mb
            << ", setup_s " << setup_s << ", round_fail_ratio "
            << static_cast<double>(b.failed()) / b.attempted()
            << "\n  round_s per round:";
  for (const double w : wall) std::cerr << " " << w;
  std::cerr << "\n  cpu_s per round:";
  for (const double c : cpu) std::cerr << " " << c;
  std::cerr << "\n";
  return {{"round_s", "s", median(wall)},
          {"cpu_s", "s", median(cpu)},
          {"peak_rss_mb", "MB", peak_rss_mb},
          {"setup_s", "s", setup_s}};
}

/// --trace 1: untraced in-process, traced in-process and distributed
/// rounds in turn until the time is up, after one distributed warm-up.
std::vector<metric_value> run_traced(bench& b, const options& opt) {
  if (!b.distributed_round().ok) b.fail("warm-up round failed");
  roundbench::span_recorder rec;
  std::vector<roundbench::layer_metrics> traced;
  std::vector<double> untraced_s, traced_s, dist_cpu_s;
  const auto t0 = clock_type::now();
  std::uint32_t round = 0;
  while (round == 0 || seconds_since(t0) < opt.seconds) {
    double wall = 0;
    (void)b.inproc_round(nullptr, wall);
    untraced_s.push_back(wall);
    rec.set_round(++round);
    traced.push_back(b.inproc_round(&rec, wall).layers);
    traced_s.push_back(wall);
    const round_sample s = b.distributed_round();
    if (s.ok) dist_cpu_s.push_back(s.cpu_s);
  }

  std::vector<metric_value> out;
  for (const auto& m : roundbench::per_layer_metrics()) {
    std::vector<double> values;
    for (const auto& layers : traced) values.push_back(layers.at(m.name));
    out.push_back({m.name, m.unit, median(values)});
  }
  const double inproc_s = median(untraced_s);
  const auto set = [&](const std::string& name, double v) {
    for (auto& m : out) {
      if (m.name == name) m.value = v;
    }
  };
  set("inproc.round_s", inproc_s);
  set("trace.overhead_ratio", median(traced_s) / inproc_s - 1.0);
  set("dist.overhead_cpu_s", median(dist_cpu_s) - inproc_s);

  std::cerr << "roundbench: " << opt.workload << " seed " << opt.seed << ": "
            << traced.size() << " traced rounds\n  untraced in-process s:";
  for (const double w : untraced_s) std::cerr << " " << w;
  std::cerr << "\n  traced in-process s:";
  for (const double w : traced_s) std::cerr << " " << w;
  std::cerr << "\n  distributed cpu_s:";
  for (const double c : dist_cpu_s) std::cerr << " " << c;
  std::cerr << "\n  median self time per layer:\n";
  double total = 0, unattributed = 0;
  std::vector<metric_value> seconds;
  for (const auto& m : out) {
    if (m.name == "trace.total_s") total = m.value;
    if (m.name == "trace.unattributed_s") unattributed = m.value;
    const bool whole_round = m.name == "inproc.round_s" ||
                             m.name == "trace.total_s" ||
                             m.name == "dist.overhead_cpu_s";
    if (m.unit == "s" && m.value > 0 && !whole_round) seconds.push_back(m);
  }
  std::sort(seconds.begin(), seconds.end(),
            [](const auto& a, const auto& b) { return a.value > b.value; });
  for (const auto& m : seconds) {
    std::fprintf(stderr, "    %-30s %10.4f s\n", m.name.c_str(), m.value);
  }
  std::cerr << "  inproc.round_s " << inproc_s << ", trace.total_s " << total
            << ", trace.overhead_ratio " << median(traced_s) / inproc_s - 1.0
            << ", dist.overhead_cpu_s " << median(dist_cpu_s) - inproc_s
            << "\n";
  if (total > 0 && unattributed > k_max_unattributed_share * total) {
    b.fail("traced round leaves " + std::to_string(unattributed) + " s of " +
           std::to_string(total) + " s outside every layer span");
  }
  if (!opt.spans_path.empty()) rec.write_chrome_trace(opt.spans_path);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse_args(argc, argv);
  try {
    const temp_dir work{opt.work_root};
    bench b{opt, work.path()};
    const double setup_s = b.set_up();
    const std::vector<metric_value> metrics =
        opt.trace ? run_traced(b, opt) : run_end_to_end(b, opt, setup_s);
    print_result(b, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "roundbench: " << e.what() << "\n";
    return 1;
  }
}

#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "src/cli/workload_source.h"
#include "src/util/sim_time.h"
#include "src/workload/trace_gen.h"

namespace roundbench {

namespace {

namespace cli = tormet::cli;

/// The fixed shape of one workload; sizes hold {full, tiny} values.
struct shape {
  std::string_view name;
  bool psc = true;
  std::string_view model;  // trace model (workload::trace_models())
  std::uint64_t events[2] = {0, 0};  // zipf event budget, all DCs together
  double net_scale[2] = {0, 0};      // population model network scale
  std::uint64_t bins[2] = {0, 0};    // PSC bins
  std::uint64_t days = 1;            // one daily round per day
  std::uint64_t relays[2] = {0, 0};  // 0 = replay the trace files directly
};

// Every workload runs 1 TS, 3 CPs or SKs and 3 DCs. Each DC process runs
// single-threaded (dc_ingest_threads 0), so the busiest phase — three DCs
// ingesting side by side — asks for at most 3 of the box's cores.
constexpr std::size_t k_dcs = 3;
constexpr std::size_t k_middle = 3;

// PSC epsilon. The binomial noise adds about 8·ln(2/δ)/ε² ciphertexts per
// CP to every vector the CP chain shuffles and decrypts; at the paper's
// ε = 0.3 that is ~6900 ciphertexts whatever the bin count, which puts one
// round near 8 s. ε = 1 keeps the noise vector in the chain (~620
// ciphertexts) and a round of 1-3 s, so a run holds several rounds.
constexpr double k_psc_epsilon[2] = {1.0, 4.0};

// Why each workload is here: BENCHMARK.json and README.md.
const std::vector<shape>& shapes() {
  static const std::vector<shape> table = {
      // CP mix/decrypt chain, DC table init and TS combine dominate.
      {"psc-aggregate", true, "zipf", {9'000, 300}, {0, 0}, {512, 64}, 1,
       {0, 0}},
      // DC seeded-insert encryption dominates CPU: the same PSC layers in
      // the opposite balance.
      {"psc-collect", true, "population", {0, 0}, {1e-2, 2e-4}, {1024, 64}, 1,
       {0, 0}},
      // Trace decode, windowed cursor and counter-slab ingest; negligible
      // crypto.
      {"privcount-trace", false, "zipf", {6'000'000, 30'000}, {0, 0}, {0, 0},
       2, {0, 0}},
      // The relay publish/aggregate detour that privcount-trace bypasses.
      {"privcount-relays", false, "zipf", {2'000'000, 20'000}, {0, 0}, {0, 0},
       2, {201, 6}},
  };
  return table;
}

const shape& shape_of(std::string_view name) {
  for (const auto& s : shapes()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument{"unknown workload: " + std::string{name}};
}

}  // namespace

bool is_workload(std::string_view name) {
  return std::any_of(shapes().begin(), shapes().end(),
                     [&](const shape& s) { return s.name == name; });
}

cli::deployment_plan render(std::string_view name, std::uint64_t seed,
                            scale size, const std::string& dir) {
  const shape& s = shape_of(name);
  const int z = size == scale::full ? 0 : 1;

  tormet::workload::trace_gen_params params;
  params.model = std::string{s.model};
  params.dcs = k_dcs;
  if (s.net_scale[z] > 0) params.scale = s.net_scale[z];
  if (s.events[z] > 0) params.events = s.events[z];
  params.seed = seed;
  params.days = s.days;
  std::filesystem::create_directories(dir);
  (void)tormet::workload::write_trace_dir(params, dir);

  const cli::trace_round_defaults defaults =
      cli::defaults_for_model(params.model);
  cli::deployment_plan plan =
      s.psc ? cli::make_psc_plan(k_dcs, k_middle, s.bins[z])
            : cli::make_privcount_plan(k_dcs, k_middle, defaults.counters);
  if (s.psc) {
    plan.round.group = tormet::crypto::group_backend::p256;
    plan.round.privacy.epsilon = k_psc_epsilon[z];
  }
  if (s.relays[z] > 0) {
    // The DCs regenerate the model themselves (a pure function of the
    // plan) and detour every window through their relay fleet; the trace
    // files beside the plan are the operator's copy, as tormet_tracegen
    // --relays writes them.
    plan.workload.kind = cli::workload_kind::relays;
    plan.workload.relay_count = s.relays[z];
    plan.workload.model = params.model;
    plan.workload.scale = params.scale;
    plan.workload.events = params.events;
    plan.workload.gen_seed = params.seed;
    plan.workload.gen_days = params.days;
  } else {
    plan.workload.kind = cli::workload_kind::trace;
    plan.workload.trace_dir = std::filesystem::absolute(dir).string();
  }
  if (s.days > 1) {
    plan.schedule_rounds = static_cast<std::uint32_t>(s.days);
    plan.round_duration_s = tormet::k_seconds_per_day;
    plan.round_gap_s = 0;
  }
  plan.psc_extractor = defaults.psc_extractor;
  plan.instruments = defaults.instruments;
  plan.counters = defaults.counters;
  plan.rng_seed = seed;
  plan.dc_ingest_threads = 0;
  plan.tally_path = (std::filesystem::absolute(dir) / "tally.out").string();
  cli::save_plan(plan, dir + "/plan.cfg");
  return plan;
}

}  // namespace roundbench

// Traced in-process rounds. The benchmark records spans from its own files
// around the calls it makes into each layer's public functions:
//
//   round                 the whole plan -> tally call (root span)
//   workload.materialize  cli::materialize_plan_events, once per DC, as
//                         every DC process materializes the whole table
//   cursor.stream         cli::workload_cursor::stream_window / drain
//   relay.route           relay::relay_plane::route
//   relay.close_window    relay::relay_plane::close_window
//   dc.ingest             core::event_sink::ingest/observe on each DC
//   <proto>.<role>.<msg>  one protocol handler call, named by the
//                         receiving role and the message type, through a
//                         net::transport decorator that wraps every
//                         registered handler
//
// A span's self time is its duration minus the time its child spans
// cover; the root's self time is the part of the round no layer claims.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/cli/deployment_plan.h"

namespace roundbench {

/// One recorded interval. `name` points at a string with static storage.
struct span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into span_recorder::spans(); -1 = root
  std::uint32_t round = 0;   // the benchmark round the span belongs to
};

/// Spans of every traced round, kept in memory until the run ends.
class span_recorder {
 public:
  void set_round(std::uint32_t round) { round_ = round; }
  std::int32_t open(const char* name);
  void close(std::int32_t index);
  [[nodiscard]] const std::vector<span>& spans() const noexcept {
    return spans_;
  }
  /// Writes every span as Chrome trace-event JSON (chrome://tracing and
  /// Perfetto open it); span id, parent and round ride in "args".
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<span> spans_;
  std::vector<std::int32_t> open_;  // stack of open span indices
  std::uint32_t round_ = 0;
};

/// Per-layer metrics of one in-process round, keyed by per_layer metric
/// name (see per_layer_metrics()). Empty for an untraced round.
using layer_metrics = std::map<std::string, double>;

struct inproc_result {
  std::string tally;
  layer_metrics layers;
};

/// Runs `plan` in-process over the deterministic inproc bus, reproducing
/// cli::run_reference_round's bytes. Unlike the reference round, it does
/// what each DC process does: every DC materializes its own event table,
/// and a `relays` plan routes each DC's windows through a
/// relay::relay_plane publishing under `scratch_dir`. With a recorder
/// every layer boundary is traced; without one the same round runs
/// undecorated, which is the untraced baseline.
[[nodiscard]] inproc_result run_inproc_round(
    const tormet::cli::deployment_plan& plan, const std::string& scratch_dir,
    span_recorder* recorder);

struct metric_def {
  std::string name;
  std::string unit;
};

/// Every per-layer metric the traced mode reports, in report order.
[[nodiscard]] const std::vector<metric_def>& per_layer_metrics();

}  // namespace roundbench

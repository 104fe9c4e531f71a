#include "tracing.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "src/cli/node_runner.h"
#include "src/cli/workload_source.h"
#include "src/core/event_sink.h"
#include "src/core/instruments.h"
#include "src/net/inproc.h"
#include "src/privcount/deployment.h"
#include "src/privcount/messages.h"
#include "src/psc/deployment.h"
#include "src/psc/messages.h"
#include "src/relay/relay_plane.h"
#include "src/relay/stats_agent.h"

namespace roundbench {

namespace {

namespace cli = tormet::cli;
namespace net = tormet::net;
namespace core = tormet::core;
namespace tor = tormet::tor;
using cli::node_role;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Opens a span for its lifetime; a no-op without a recorder.
class scoped_span {
 public:
  scoped_span(span_recorder* rec, const char* name)
      : rec_{rec}, index_{rec != nullptr ? rec->open(name) : -1} {}
  ~scoped_span() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  span_recorder* rec_;
  std::int32_t index_;
};

// -- handler and message names ----------------------------------------------

struct handler_def {
  node_role role;
  std::uint16_t type;
  const char* span;  // handler span name (metric = span + "_s")
};

template <typename E>
constexpr std::uint16_t type_of(E e) {
  return static_cast<std::uint16_t>(e);
}

using psc_msg = tormet::psc::msg_type;
using pc_msg = tormet::privcount::msg_type;

const handler_def k_handlers[] = {
    {node_role::psc_cp, type_of(psc_msg::cp_configure), "psc.cp.configure"},
    {node_role::psc_ts, type_of(psc_msg::pk_share), "psc.ts.keysetup"},
    {node_role::psc_dc, type_of(psc_msg::dc_configure), "psc.dc.configure"},
    {node_role::psc_cp, type_of(psc_msg::dc_configure), "psc.cp.joint_key"},
    {node_role::psc_dc, type_of(psc_msg::report_request), "psc.dc.report"},
    {node_role::psc_ts, type_of(psc_msg::dc_vector), "psc.ts.combine"},
    {node_role::psc_cp, type_of(psc_msg::mix_pass), "psc.cp.mix"},
    {node_role::psc_ts, type_of(psc_msg::mix_pass), "psc.ts.forward"},
    {node_role::psc_cp, type_of(psc_msg::decrypt_pass), "psc.cp.decrypt"},
    {node_role::psc_ts, type_of(psc_msg::final_vector), "psc.ts.decode"},
    {node_role::privcount_dc, type_of(pc_msg::configure),
     "privcount.dc.configure"},
    {node_role::privcount_sk, type_of(pc_msg::configure),
     "privcount.sk.configure"},
    {node_role::privcount_sk, type_of(pc_msg::blinding_share),
     "privcount.sk.share"},
    {node_role::privcount_ts, type_of(pc_msg::dc_ready), "privcount.ts.ready"},
    {node_role::privcount_dc, type_of(pc_msg::start_collection),
     "privcount.dc.start"},
    {node_role::privcount_dc, type_of(pc_msg::stop_collection),
     "privcount.dc.report"},
    {node_role::privcount_ts, type_of(pc_msg::dc_report),
     "privcount.ts.combine"},
    {node_role::privcount_sk, type_of(pc_msg::sk_reveal),
     "privcount.sk.reveal"},
    {node_role::privcount_ts, type_of(pc_msg::sk_report),
     "privcount.ts.combine"},
};
constexpr const char* k_other_handler = "net.other_handler";

struct message_def {
  bool psc;
  std::uint16_t type;
  const char* name;  // net.messages.<name>, net.payload_bytes.<name>
};

const message_def k_messages[] = {
    {true, type_of(psc_msg::cp_configure), "psc.cp_configure"},
    {true, type_of(psc_msg::pk_share), "psc.pk_share"},
    {true, type_of(psc_msg::dc_configure), "psc.dc_configure"},
    {true, type_of(psc_msg::report_request), "psc.report_request"},
    {true, type_of(psc_msg::dc_vector), "psc.dc_vector"},
    {true, type_of(psc_msg::mix_pass), "psc.mix_pass"},
    {true, type_of(psc_msg::decrypt_pass), "psc.decrypt_pass"},
    {true, type_of(psc_msg::final_vector), "psc.final_vector"},
    {false, type_of(pc_msg::configure), "privcount.configure"},
    {false, type_of(pc_msg::blinding_share), "privcount.blinding_share"},
    {false, type_of(pc_msg::dc_ready), "privcount.dc_ready"},
    {false, type_of(pc_msg::start_collection), "privcount.start_collection"},
    {false, type_of(pc_msg::stop_collection), "privcount.stop_collection"},
    {false, type_of(pc_msg::dc_report), "privcount.dc_report"},
    {false, type_of(pc_msg::sk_reveal), "privcount.sk_reveal"},
    {false, type_of(pc_msg::sk_report), "privcount.sk_report"},
};

/// Layer counters of one traced round.
struct layer_counts {
  std::map<std::string, double> values;
  void add(const std::string& name, double v) { values[name] += v; }
};

// -- decorators ---------------------------------------------------------------

/// Wraps every handler registered on the inner transport in a span named
/// after the receiving role and the message type, and counts delivered
/// messages and payload bytes per type.
class traced_transport final : public net::transport {
 public:
  traced_transport(net::transport& inner, span_recorder& rec,
                   const cli::deployment_plan& plan, layer_counts& counts)
      : inner_{inner}, rec_{rec}, plan_{plan}, counts_{counts} {}

  void register_node(net::node_id id, net::message_handler handler) override {
    const node_role role = plan_.node(id).role;
    const bool psc = plan_.protocol == "psc";
    inner_.register_node(
        id, [this, role, psc, h = std::move(handler)](const net::message& m) {
          const std::string msg = std::string{"."} + message_name(psc, m.type);
          counts_.add("net.messages", 1);
          counts_.add("net.messages" + msg, 1);
          counts_.add("net.payload_bytes",
                      static_cast<double>(m.payload.size()));
          counts_.add("net.payload_bytes" + msg,
                      static_cast<double>(m.payload.size()));
          scoped_span s{&rec_, handler_name(role, m.type)};
          h(m);
        });
  }
  void send(net::message msg) override { inner_.send(std::move(msg)); }
  std::size_t run_until_quiescent() override {
    return inner_.run_until_quiescent();
  }
  void run_until(const std::function<bool()>& done, int deadline_ms) override {
    inner_.run_until(done, deadline_ms);
  }

 private:
  static const char* handler_name(node_role role, std::uint16_t type) {
    for (const auto& h : k_handlers) {
      if (h.role == role && h.type == type) return h.span;
    }
    return k_other_handler;
  }
  static const char* message_name(bool psc, std::uint16_t type) {
    for (const auto& m : k_messages) {
      if (m.psc == psc && m.type == type) return m.name;
    }
    return "other";
  }

  net::transport& inner_;
  span_recorder& rec_;
  const cli::deployment_plan& plan_;
  layer_counts& counts_;
};

/// Times and counts every event span one DC ingests.
class traced_sink final : public core::event_sink {
 public:
  traced_sink(core::event_sink& inner, span_recorder& rec,
              layer_counts& counts)
      : inner_{inner}, rec_{rec}, counts_{counts} {}

  void observe(const tor::event& ev) override {
    record(1);
    scoped_span s{&rec_, "dc.ingest"};
    inner_.observe(ev);
  }
  void ingest(const tor::event* evs, std::size_t n) override {
    record(n);
    scoped_span s{&rec_, "dc.ingest"};
    inner_.ingest(evs, n);
  }
  void set_shards(std::size_t n) override { inner_.set_shards(n); }
  [[nodiscard]] std::size_t shards() const noexcept override {
    return inner_.shards();
  }
  void set_thread_pool(
      std::shared_ptr<tormet::util::thread_pool> pool) override {
    inner_.set_thread_pool(std::move(pool));
  }
  [[nodiscard]] std::uint64_t events_observed() const noexcept override {
    return inner_.events_observed();
  }

 private:
  void record(std::size_t n) {
    counts_.add("dc.ingest_events", static_cast<double>(n));
    counts_.add("dc.ingest_spans", 1);
  }

  core::event_sink& inner_;
  span_recorder& rec_;
  layer_counts& counts_;
};

// -- the round ------------------------------------------------------------------

using event_table = std::vector<std::vector<tor::event>>;

/// Everything a DC process holds besides its protocol role: its cursor
/// and, for relays plans, its relay fleet.
struct dc_feed {
  std::optional<cli::workload_cursor> cursor;
  std::optional<tormet::relay::relay_plane> plane;
};

/// The sink each DC's events go to: the DC itself, or its decorator when
/// traced. Declare it after the deployment whose DCs it wraps.
class dc_sinks {
 public:
  template <typename Deployment>
  dc_sinks(Deployment& dep, std::size_t dcs, span_recorder* rec,
           layer_counts& counts) {
    for (std::size_t i = 0; i < dcs; ++i) {
      core::event_sink& dc = dep.dc_at(i);
      if (rec == nullptr) {
        sinks_.push_back(&dc);
        continue;
      }
      traced_.push_back(std::make_unique<traced_sink>(dc, *rec, counts));
      sinks_.push_back(traced_.back().get());
    }
  }
  [[nodiscard]] core::event_sink& at(std::size_t i) const { return *sinks_[i]; }

 private:
  std::vector<std::unique_ptr<traced_sink>> traced_;
  std::vector<core::event_sink*> sinks_;
};

std::string drive_round(const cli::deployment_plan& plan,
                        const std::string& scratch_dir, span_recorder* rec,
                        layer_counts& counts) {
  const bool psc = plan.protocol == "psc";
  const std::vector<net::node_id> dc_ids =
      plan.ids_with(psc ? node_role::psc_dc : node_role::privcount_dc);
  const std::size_t middle =
      plan.ids_with(psc ? node_role::psc_cp : node_role::privcount_sk).size();
  const std::uint32_t rounds = std::max<std::uint32_t>(1, plan.schedule_rounds);
  const tormet::core::measurement_schedule sched = cli::round_schedule_of(plan);
  const bool relays = plan.workload.kind == cli::workload_kind::relays;

  std::vector<dc_feed> feeds(dc_ids.size());
  for (std::size_t i = 0; i < feeds.size(); ++i) {
    std::shared_ptr<const event_table> table;
    {
      scoped_span s{rec, "workload.materialize"};
      table = cli::materialize_plan_events(plan);
    }
    if (table != nullptr) {
      double n = 0;
      for (const auto& slice : *table) n += static_cast<double>(slice.size());
      counts.add("workload.materialized_events", n);
    }
    feeds[i].cursor.emplace(plan, i, std::move(table));
    if (relays) {
      feeds[i].plane.emplace(
          plan.workload.relay_count / dc_ids.size(), plan.sample_prob,
          tormet::relay::sampling_seed_of(plan.rng_seed),
          scratch_dir + "/pub.d/dc-" + std::to_string(i));
    }
  }

  const std::shared_ptr<tormet::util::thread_pool> pool =
      cli::make_ingest_pool(plan);
  net::inproc_net bus;
  std::optional<traced_transport> traced_bus;
  if (rec != nullptr) traced_bus.emplace(bus, *rec, plan, counts);
  net::transport& fabric =
      rec != nullptr ? static_cast<net::transport&>(*traced_bus) : bus;

  const auto feed_window = [&](std::uint32_t round_id, const dc_sinks& sinks) {
    const cli::round_window w = cli::round_window_for(plan, sched, round_id - 1);
    for (std::size_t i = 0; i < feeds.size(); ++i) {
      dc_feed& f = feeds[i];
      core::event_sink& sink = sinks.at(i);
      std::size_t streamed = 0;
      if (f.plane.has_value()) {
        {
          scoped_span s{rec, "cursor.stream"};
          streamed = f.cursor->stream_window(
              w.start, w.end, [&](const tor::event* evs, std::size_t n) {
                scoped_span r{rec, "relay.route"};
                f.plane->route(evs, n);
              });
        }
        scoped_span s{rec, "relay.close_window"};
        f.plane->close_window(round_id - 1, sink);
      } else {
        scoped_span s{rec, "cursor.stream"};
        streamed = f.cursor->stream_window(
            w.start, w.end, [&sink](const tor::event* evs, std::size_t n) {
              sink.ingest(evs, n);
            });
      }
      counts.add("cursor.events", static_cast<double>(streamed));
      if (round_id == rounds) {
        scoped_span s{rec, "cursor.stream"};
        f.cursor->drain();
      }
    }
  };

  std::vector<std::string> tallies;
  if (psc) {
    tormet::psc::deployment_config cfg;
    cfg.num_computation_parties = middle;
    for (std::size_t i = 0; i < dc_ids.size(); ++i) {
      cfg.measured_relays.push_back(static_cast<tor::relay_id>(i));
    }
    cfg.round = plan.round;
    cfg.rng_seed = plan.rng_seed;
    tormet::psc::deployment dep{fabric, cfg};
    dep.set_extractor(core::extractor_by_name(plan.psc_extractor));
    for (std::size_t i = 0; i < dc_ids.size(); ++i) {
      cli::configure_dc_ingest(plan, dep.dc_at(i), pool);
    }
    const dc_sinks sinks{dep, dc_ids.size(), rec, counts};
    for (std::uint32_t r = 1; r <= rounds; ++r) {
      const tormet::psc::round_outcome out =
          dep.run_round([&] { feed_window(r, sinks); });
      tallies.push_back(cli::serialize_psc_tally(out.raw_count, out.bins,
                                                 out.total_noise_bits));
    }
    for (std::size_t i = 0; i < dc_ids.size(); ++i) {
      counts.add("psc.dc.items_inserted",
                 static_cast<double>(dep.dc_at(i).items_inserted()));
    }
  } else {
    tormet::privcount::deployment_config cfg;
    cfg.num_share_keepers = middle;
    for (std::size_t i = 0; i < dc_ids.size(); ++i) {
      cfg.measured_relays.push_back(static_cast<tor::relay_id>(i));
    }
    cfg.privacy = plan.privacy;
    cfg.noise_enabled = plan.privcount_noise_enabled;
    cfg.rng_seed = plan.rng_seed;
    tormet::privcount::deployment dep{fabric, cfg};
    for (const auto& name : plan.instruments) {
      dep.add_instrument(core::instrument_by_name(name));
    }
    for (std::size_t i = 0; i < dc_ids.size(); ++i) {
      cli::configure_dc_ingest(plan, dep.dc_at(i), pool);
    }
    const dc_sinks sinks{dep, dc_ids.size(), rec, counts};
    for (std::uint32_t r = 1; r <= rounds; ++r) {
      tallies.push_back(cli::serialize_privcount_tally(dep.run_round(
          plan.counters, [&] { feed_window(r, sinks); })));
    }
  }

  for (const dc_feed& f : feeds) {
    counts.add("cursor.dropped",
               static_cast<double>(f.cursor->dropped_outside_windows()));
    if (f.plane.has_value()) {
      const tormet::relay::aggregate_stats& t = f.plane->totals();
      counts.add("relay.windows", static_cast<double>(t.windows_ingested));
      counts.add("relay.faults", static_cast<double>(t.missing + t.duplicates +
                                                     t.late_dropped +
                                                     t.rejected));
    }
  }
  return cli::serialize_multiround_tally(tallies);
}

/// Self time per span name over spans [first, end) plus the layer counters
/// of the round, as per-layer metrics.
layer_metrics summarize(const std::vector<span>& spans, std::size_t first,
                        const layer_counts& counts) {
  layer_metrics out;
  for (const auto& m : per_layer_metrics()) out[m.name] = 0.0;
  std::vector<double> child_s(spans.size() - first, 0.0);
  for (std::size_t i = first; i < spans.size(); ++i) {
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
    if (spans[i].parent >= 0) {
      child_s[static_cast<std::size_t>(spans[i].parent) - first] += d;
    }
  }
  for (std::size_t i = first; i < spans.size(); ++i) {
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
    const double self = d - child_s[i - first];
    if (spans[i].parent < 0) {
      out["trace.total_s"] += d;
      out["trace.unattributed_s"] += self;
    } else {
      out[std::string{spans[i].name} + "_s"] += self;
    }
  }
  for (const auto& [name, v] : counts.values) out[name] = v;
  const double ingested = out["dc.ingest_events"];
  if (ingested > 0) {
    out["psc.dc.insert_ratio"] = out["psc.dc.items_inserted"] / ingested;
  }
  // Each DC materializes the whole table, so one DC's share of what it
  // materialized is its ingest over its own materialization.
  if (out["workload.materialized_events"] > 0) {
    out["workload.slice_ratio"] = ingested / out["workload.materialized_events"];
  }
  return out;
}

}  // namespace

std::int32_t span_recorder::open(const char* name) {
  span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.round = round_;
  const auto index = static_cast<std::int32_t>(spans_.size());
  open_.push_back(index);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return index;
}

void span_recorder::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void span_recorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error{"cannot write " + path};
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"round\":%u}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 s.round);
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error{"short write to " + path};
}

inproc_result run_inproc_round(const cli::deployment_plan& plan,
                               const std::string& scratch_dir,
                               span_recorder* recorder) {
  layer_counts counts;
  const std::size_t first = recorder != nullptr ? recorder->spans().size() : 0;
  inproc_result out;
  {
    scoped_span root{recorder, "round"};
    out.tally = drive_round(plan, scratch_dir, recorder, counts);
  }
  std::filesystem::remove_all(scratch_dir + "/pub.d");
  if (recorder != nullptr) {
    out.layers = summarize(recorder->spans(), first, counts);
  }
  return out;
}

const std::vector<metric_def>& per_layer_metrics() {
  static const std::vector<metric_def> list = [] {
    std::vector<metric_def> out;
    const auto seconds = [&](const char* span) {
      const std::string name = std::string{span} + "_s";
      for (const auto& m : out) {
        if (m.name == name) return;
      }
      out.push_back({name, "s"});
    };
    for (const auto& h : k_handlers) seconds(h.span);
    seconds(k_other_handler);
    for (const char* span : {"dc.ingest", "cursor.stream", "relay.route",
                             "relay.close_window", "workload.materialize"}) {
      seconds(span);
    }
    for (const char* count :
         {"dc.ingest_events", "dc.ingest_spans", "psc.dc.items_inserted",
          "cursor.events", "cursor.dropped", "relay.windows", "relay.faults",
          "workload.materialized_events"}) {
      out.push_back({count, "count"});
    }
    out.push_back({"psc.dc.insert_ratio", "ratio"});
    out.push_back({"workload.slice_ratio", "ratio"});
    out.push_back({"net.messages", "count"});
    out.push_back({"net.payload_bytes", "bytes"});
    for (const auto& m : k_messages) {
      out.push_back({std::string{"net.messages."} + m.name, "count"});
      out.push_back({std::string{"net.payload_bytes."} + m.name, "bytes"});
    }
    out.push_back({"inproc.round_s", "s"});
    out.push_back({"trace.total_s", "s"});
    out.push_back({"trace.unattributed_s", "s"});
    out.push_back({"trace.overhead_ratio", "ratio"});
    out.push_back({"dist.overhead_cpu_s", "s"});
    return out;
  }();
  return list;
}

}  // namespace roundbench

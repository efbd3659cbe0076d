#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

// Leaf POD vocabulary header (Op, Request): includes nothing, links
// nothing, so the link DAG stays telemetry <- memsim.
#include "memsim/request.hpp"  // comet-lint: allow(layering)
#include "util/stats.hpp"

/// Run-scoped observability: per-request lifecycle events for Chrome
/// trace-event export and an epoch sampler turning a replay into a
/// time-series (bandwidth, queue occupancy, drain activity, interval
/// percentiles).
///
/// The recording model mirrors the engines' own lane discipline: one
/// Recorder per engine *stage* (a flat replay is one stage; a hybrid
/// run has a "dram" and a "backend" stage), holding one Lane per
/// channel. Every ReplaySession and sched::Controller serves one
/// channel and records only into that channel's lane — so lanes need
/// no locking (the LanePool join publishes them), and a traced run
/// produces byte-identical telemetry for every run-thread count.
/// Reading a Recorder back (timeline(), the trace writer) always walks
/// stages in creation order and lanes in channel order, keeping every
/// export deterministic.
///
/// Cost discipline: engines hold no collector (a run receives it as an
/// argument); the replay sessions and controllers hold a `Recorder*`
/// that is nullptr on untraced runs, so the hot replay path pays one
/// pointer-null branch per request and nothing else — the perf lane's
/// 15% gate keeps that honest.
namespace comet::telemetry {

/// What a run should record; the [telemetry] config section builds one
/// (the --trace-out/--trace-limit/--metrics-interval/--metrics-csv
/// flags spell its keys).
struct TelemetrySpec {
  std::string trace_path;  ///< Non-empty: write Chrome trace JSON here.

  /// Cap on recorded request events per job, split over stages and
  /// channels (0 = unlimited). Requests past a lane's share are counted
  /// but not stored, and the trace carries an explicit truncation
  /// record.
  std::uint64_t trace_limit = 1'000'000;

  /// Epoch length of the metrics time-series; 0 disables sampling.
  std::uint64_t metrics_interval_ps = 0;

  std::string metrics_csv;  ///< Non-empty: also write the timeline CSV.

  bool tracing() const { return !trace_path.empty(); }
  bool sampling() const { return metrics_interval_ps > 0; }
  bool enabled() const { return tracing() || sampling(); }

  /// Throws std::invalid_argument on a CSV path without a sampling
  /// interval (there would be no timeline to write).
  void validate() const;
};

/// One request's full lifecycle, as the replay back-end resolved it:
/// arrival at the controller, issue to the device (== arrival for
/// unscheduled replay), service start after bank arbitration, data
/// completion, and how long the serving bank stays busy.
struct RequestEvent {
  std::uint64_t id = 0;
  std::uint64_t arrival_ps = 0;
  std::uint64_t issue_ps = 0;
  std::uint64_t start_ps = 0;
  std::uint64_t completion_ps = 0;
  std::uint64_t bank_busy_until_ps = 0;
  std::uint32_t size_bytes = 0;
  std::uint16_t bank = 0;
  std::uint16_t tenant = 0;  ///< 1-based tenant stream; 0 = untagged.
  memsim::Op op = memsim::Op::kRead;
};

/// Channel-level scheduler markers (instant events in the trace).
enum class MarkKind : std::uint8_t {
  kAdmitStall,  ///< An arrival found its bounded queue full.
  kDrainBegin,  ///< Write-drain hysteresis entered drain mode.
  kDrainEnd,    ///< Occupancy fell to the low watermark; drain over.
};

struct Mark {
  MarkKind kind = MarkKind::kAdmitStall;
  std::uint64_t at_ps = 0;
};

/// One epoch's accumulators for one channel. Requests are binned by
/// *completion* epoch — every served request lands in exactly one bin,
/// so the timeline's reads+writes always sum to the run's totals —
/// while queue-occupancy samples and scheduler markers bin at the
/// instant they were observed.
struct EpochAccum {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes = 0;
  double bank_busy_ns = 0.0;
  util::RunningStats latency_ns;  ///< Arrival-to-completion.
  util::RunningStats read_queue_occupancy;
  util::RunningStats write_queue_occupancy;
  std::uint64_t write_drains = 0;
  std::uint64_t drained_writes = 0;
  std::uint64_t admit_stalls = 0;

  void merge(const EpochAccum& other);
};

/// One channel's recordings inside one stage. Touched by exactly one
/// thread (the channel's lane worker, or the replay loop's thread).
struct LaneTelemetry {
  std::vector<RequestEvent> events;
  std::vector<Mark> marks;
  std::uint64_t event_cap = 0;  ///< 0 = unlimited.
  std::uint64_t dropped_events = 0;
  std::uint64_t dropped_marks = 0;
  std::vector<std::uint64_t> bank_requests;  ///< Heatmap: per-bank totals.
  std::map<std::uint64_t, EpochAccum> epochs;
};

/// One merged point of the run's metrics time-series (all stages and
/// channels of one epoch folded together, stage order then channel
/// order — the deterministic reduction).
struct TimelinePoint {
  std::uint64_t epoch = 0;  ///< Absolute index: time_ps / interval_ps.
  std::uint64_t start_ps = 0;
  std::uint64_t end_ps = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes = 0;
  double bandwidth_gbps = 0.0;
  double avg_latency_ns = 0.0;
  double p50_latency_ns = 0.0;
  double p95_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  double avg_read_queue_occupancy = 0.0;
  double avg_write_queue_occupancy = 0.0;
  std::uint64_t write_drains = 0;
  std::uint64_t drained_writes = 0;
  std::uint64_t admit_stalls = 0;
  double bank_busy_ns = 0.0;
  /// Requests completed per channel this epoch, stages concatenated in
  /// creation order, channels in channel order within each stage.
  std::vector<std::uint64_t> channel_requests;
};

class Collector;

/// The recording surface one engine stage writes through. Channel-
/// partitioned and lock-free (see the file comment); all record_*
/// methods are O(1).
class Recorder {
 public:
  const std::string& stage() const { return name_; }
  int channels() const { return static_cast<int>(lanes_.size()); }
  int banks() const { return banks_; }

  void record_request(int channel, const RequestEvent& event);
  void record_queue_sample(int channel, std::uint64_t at_ps,
                           std::size_t reads_waiting,
                           std::size_t writes_waiting);
  void record_mark(int channel, MarkKind kind, std::uint64_t at_ps);
  void record_drained_write(int channel, std::uint64_t at_ps);

  const LaneTelemetry& lane(int channel) const {
    return lanes_[static_cast<std::size_t>(channel)];
  }
  std::uint64_t recorded_events() const;
  std::uint64_t dropped_events() const;  ///< Events + marks dropped.

 private:
  friend class Collector;
  Recorder(const TelemetrySpec& spec, std::string name, int channels,
           int banks, std::uint64_t event_budget);

  std::string name_;
  int banks_ = 0;
  bool trace_ = false;
  bool sample_ = false;
  std::uint64_t interval_ps_ = 0;
  std::vector<LaneTelemetry> lanes_;
};

/// Per-run (per sweep job) telemetry root: engines register their
/// stages at run() time and the driver reads the merged results back
/// after the run. Stage registration happens on the caller's thread
/// before any lane worker starts; reads happen after the run joins —
/// so the Collector itself needs no synchronization either.
class Collector {
 public:
  /// Validates the spec.
  explicit Collector(TelemetrySpec spec);
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  const TelemetrySpec& spec() const { return spec_; }

  /// Registers one engine stage and returns its recording surface
  /// (owned by the Collector, valid for its lifetime). `event_budget`
  /// is this stage's share of the spec's trace_limit (0 = unlimited),
  /// spread over the channels so the per-lane caps sum to it exactly.
  Recorder* add_stage(std::string name, int channels, int banks,
                      std::uint64_t event_budget);

  const std::vector<std::unique_ptr<Recorder>>& stages() const {
    return stages_;
  }

  /// Sum of channel counts over all stages (the width of every
  /// TimelinePoint::channel_requests vector).
  int total_channels() const;

  std::uint64_t recorded_events() const;
  std::uint64_t dropped_events() const;
  bool truncated() const { return dropped_events() > 0; }

  /// The merged metrics time-series, ascending by epoch; only epochs
  /// with at least one recording appear (the series is sparse over
  /// fully idle stretches). Empty when sampling was disabled.
  std::vector<TimelinePoint> timeline() const;

 private:
  TelemetrySpec spec_;
  std::vector<std::unique_ptr<Recorder>> stages_;
};

}  // namespace comet::telemetry

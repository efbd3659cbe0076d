#include "telemetry/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>

#include "util/format.hpp"

namespace comet::telemetry {

namespace {

/// Trace-event timestamps are microseconds; our clock is picoseconds.
/// Six fractional digits keep the full 1 ps resolution.
std::string ts_us(std::uint64_t ps) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%06" PRIu64, ps / 1'000'000,
                ps % 1'000'000);
  return buf;
}

const char* mark_name(MarkKind kind) {
  switch (kind) {
    case MarkKind::kAdmitStall: return "admit-stall";
    case MarkKind::kDrainBegin: return "drain-begin";
    case MarkKind::kDrainEnd: return "drain-end";
  }
  return "mark";
}

/// Comma-separated event stream: tracks whether a separator is due.
class EventSink {
 public:
  explicit EventSink(std::ostream& os) : os_(os) {}
  std::ostream& next() {
    os_ << (first_ ? "\n    " : ",\n    ");
    first_ = false;
    return os_;
  }

 private:
  std::ostream& os_;
  bool first_ = true;
};

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<TraceRun>& runs) {
  os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  EventSink sink(os);

  int pid = 0;
  std::uint64_t dropped_total = 0;
  std::uint64_t last_ts_ps = 0;
  for (const TraceRun& run : runs) {
    if (!run.collector) continue;
    for (const auto& stage : run.collector->stages()) {
      for (int c = 0; c < stage->channels(); ++c) {
        ++pid;
        const LaneTelemetry& lane = stage->lane(c);
        dropped_total += lane.dropped_events + lane.dropped_marks;

        std::string process = run.label;
        if (!stage->stage().empty()) process += " " + stage->stage();
        process += " channel " + std::to_string(c);
        sink.next() << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
                    << pid << ", \"args\": {\"name\": "
                    << util::json_string(process) << "}}";
        const int channel_tid = stage->banks();
        sink.next() << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": "
                    << pid << ", \"tid\": " << channel_tid
                    << ", \"args\": {\"name\": \"channel\"}}";
        for (int b = 0; b < stage->banks(); ++b) {
          if (lane.bank_requests[static_cast<std::size_t>(b)] == 0) continue;
          sink.next() << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": "
                      << pid << ", \"tid\": " << b
                      << ", \"args\": {\"name\": \"bank " << b << "\"}}";
        }

        for (const RequestEvent& ev : lane.events) {
          last_ts_ps = std::max(last_ts_ps, ev.completion_ps);
          // Queued span: only when the scheduler actually held it.
          if (ev.issue_ps > ev.arrival_ps) {
            sink.next() << "{\"name\": \"queued\", \"cat\": \"queue\", "
                        << "\"ph\": \"b\", \"id\": " << ev.id
                        << ", \"ts\": " << ts_us(ev.arrival_ps)
                        << ", \"pid\": " << pid << ", \"tid\": " << channel_tid
                        << "}";
            sink.next() << "{\"name\": \"queued\", \"cat\": \"queue\", "
                        << "\"ph\": \"e\", \"id\": " << ev.id
                        << ", \"ts\": " << ts_us(ev.issue_ps)
                        << ", \"pid\": " << pid << ", \"tid\": " << channel_tid
                        << "}";
          }
          sink.next() << "{\"name\": \""
                      << (ev.op == memsim::Op::kRead ? "read" : "write")
                      << "\", \"cat\": \"request\", \"ph\": \"X\", \"ts\": "
                      << ts_us(ev.start_ps) << ", \"dur\": "
                      << ts_us(ev.bank_busy_until_ps - ev.start_ps)
                      << ", \"pid\": " << pid << ", \"tid\": " << ev.bank
                      << ", \"args\": {\"id\": " << ev.id
                      << ", \"bytes\": " << ev.size_bytes;
          if (ev.tenant != 0) os << ", \"tenant\": " << ev.tenant;
          os << ", \"arrival_ns\": " << fmt_double(
                    static_cast<double>(ev.arrival_ps) * 1e-3)
             << ", \"issue_ns\": " << fmt_double(
                    static_cast<double>(ev.issue_ps) * 1e-3)
             << ", \"completion_ns\": " << fmt_double(
                    static_cast<double>(ev.completion_ps) * 1e-3)
             << ", \"queue_delay_ns\": " << fmt_double(
                    static_cast<double>(ev.start_ps - ev.arrival_ps) * 1e-3)
             << "}}";
          // Multi-tenant runs additionally get one async track per
          // tenant (per channel): the request's whole arrival →
          // completion lifetime, so Perfetto shows each tenant's
          // occupancy and interference side by side. Async b/e pairs —
          // not X events — because per-tenant lifetimes overlap and
          // the tid-ts monotonicity contract is for duration events.
          if (ev.tenant != 0) {
            const char* op = ev.op == memsim::Op::kRead ? "read" : "write";
            sink.next() << "{\"name\": \"t" << ev.tenant << " " << op
                        << "\", \"cat\": \"tenant\", \"ph\": \"b\", \"id\": "
                        << ev.id << ", \"ts\": " << ts_us(ev.arrival_ps)
                        << ", \"pid\": " << pid << ", \"tid\": " << channel_tid
                        << ", \"args\": {\"tenant\": " << ev.tenant << "}}";
            sink.next() << "{\"name\": \"t" << ev.tenant << " " << op
                        << "\", \"cat\": \"tenant\", \"ph\": \"e\", \"id\": "
                        << ev.id << ", \"ts\": " << ts_us(ev.completion_ps)
                        << ", \"pid\": " << pid << ", \"tid\": " << channel_tid
                        << "}";
          }
        }
        for (const Mark& mark : lane.marks) {
          last_ts_ps = std::max(last_ts_ps, mark.at_ps);
          sink.next() << "{\"name\": \"" << mark_name(mark.kind)
                      << "\", \"cat\": \"sched\", \"ph\": \"i\", \"s\": \"p\""
                      << ", \"ts\": " << ts_us(mark.at_ps)
                      << ", \"pid\": " << pid << ", \"tid\": " << channel_tid
                      << "}";
        }
      }
    }
  }

  if (dropped_total > 0) {
    // The explicit truncation record the --trace-limit contract
    // promises: a capped trace says so inside the trace itself.
    sink.next() << "{\"name\": \"trace-truncated\", \"cat\": \"telemetry\", "
                << "\"ph\": \"i\", \"s\": \"g\", \"ts\": " << ts_us(last_ts_ps)
                << ", \"pid\": 1, \"tid\": 0, \"args\": {\"dropped_events\": "
                << dropped_total << "}}";
  }
  os << "\n  ]\n}\n";
}

const std::vector<TimelineColumn>& timeline_columns() {
  static const std::vector<TimelineColumn> columns = {
      {"epoch", &TimelinePoint::epoch},
      {"reads", &TimelinePoint::reads},
      {"writes", &TimelinePoint::writes},
      {"bytes", &TimelinePoint::bytes},
      {"bandwidth_gbps", nullptr, &TimelinePoint::bandwidth_gbps},
      {"avg_latency_ns", nullptr, &TimelinePoint::avg_latency_ns},
      {"p50_latency_ns", nullptr, &TimelinePoint::p50_latency_ns},
      {"p95_latency_ns", nullptr, &TimelinePoint::p95_latency_ns},
      {"p99_latency_ns", nullptr, &TimelinePoint::p99_latency_ns},
      {"avg_read_queue_occupancy", nullptr,
       &TimelinePoint::avg_read_queue_occupancy},
      {"avg_write_queue_occupancy", nullptr,
       &TimelinePoint::avg_write_queue_occupancy},
      {"write_drains", &TimelinePoint::write_drains},
      {"drained_writes", &TimelinePoint::drained_writes},
      {"admit_stalls", &TimelinePoint::admit_stalls},
      {"bank_busy_ns", nullptr, &TimelinePoint::bank_busy_ns},
  };
  return columns;
}

void write_timeline_csv(std::ostream& os, const std::vector<TraceRun>& runs) {
  const auto& columns = timeline_columns();
  os << "run";
  for (std::size_t c = 0; c < columns.size(); ++c) {
    os << ',' << columns[c].name;
    if (c == 0) os << ",start_ns,end_ns";
  }
  os << '\n';
  for (const TraceRun& run : runs) {
    if (!run.collector) continue;
    for (const TimelinePoint& p : run.collector->timeline()) {
      os << run.label;
      for (std::size_t c = 0; c < columns.size(); ++c) {
        const TimelineColumn& column = columns[c];
        os << ',';
        if (column.count) {
          os << p.*column.count;
        } else {
          os << fmt_double(p.*column.real);
        }
        if (c == 0) os << ',' << p.start_ps / 1000 << ',' << p.end_ps / 1000;
      }
      os << '\n';
    }
  }
}

}  // namespace comet::telemetry

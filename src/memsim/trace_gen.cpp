#include "memsim/trace_gen.hpp"

#include <algorithm>
#include <stdexcept>

namespace comet::memsim {

namespace {

void validate_profile(const WorkloadProfile& profile) {
  if (profile.read_fraction < 0.0 || profile.read_fraction > 1.0 ||
      profile.locality < 0.0 || profile.locality > 1.0 ||
      profile.working_set_bytes == 0 || profile.avg_interarrival_ns <= 0) {
    throw std::invalid_argument("TraceGenerator: invalid profile");
  }
}

constexpr std::uint64_t kRowBytes = 4096;
// Hot set for Zipf patterns: 4096 hot lines spread over the set.
constexpr std::uint64_t kHotLines = 4096;

}  // namespace

std::vector<WorkloadProfile> spec_like_profiles() {
  // Classes follow the standard SPEC CPU memory characterizations:
  // lbm/libquantum stream, mcf/omnetpp pointer-chase with hot sets,
  // gcc/xalancbmk mixed, milc/leslie3d strided scientific kernels.
  return {
      WorkloadProfile{.name = "mcf_like",
                      .pattern = Pattern::kPointerChase,
                      .read_fraction = 0.92,
                      .locality = 0.1,
                      .zipf_exponent = 0.9,
                      .working_set_bytes = 2ull << 30,
                      .avg_interarrival_ns = 4.0},
      WorkloadProfile{.name = "lbm_like",
                      .pattern = Pattern::kStreaming,
                      .read_fraction = 0.55,
                      .locality = 0.9,
                      .zipf_exponent = 0.0,
                      .working_set_bytes = 1ull << 30,
                      .avg_interarrival_ns = 3.0},
      WorkloadProfile{.name = "gcc_like",
                      .pattern = Pattern::kMixed,
                      .read_fraction = 0.75,
                      .locality = 0.55,
                      .zipf_exponent = 0.6,
                      .working_set_bytes = 512ull << 20,
                      .avg_interarrival_ns = 10.0},
      WorkloadProfile{.name = "milc_like",
                      .pattern = Pattern::kStrided,
                      .read_fraction = 0.7,
                      .locality = 0.35,
                      .zipf_exponent = 0.0,
                      .working_set_bytes = 1ull << 30,
                      .avg_interarrival_ns = 5.0,
                      .stride_bytes = 512},
      WorkloadProfile{.name = "omnetpp_like",
                      .pattern = Pattern::kPointerChase,
                      .read_fraction = 0.8,
                      .locality = 0.2,
                      .zipf_exponent = 1.1,
                      .working_set_bytes = 256ull << 20,
                      .avg_interarrival_ns = 8.0},
      WorkloadProfile{.name = "xalancbmk_like",
                      .pattern = Pattern::kMixed,
                      .read_fraction = 0.85,
                      .locality = 0.45,
                      .zipf_exponent = 0.8,
                      .working_set_bytes = 512ull << 20,
                      .avg_interarrival_ns = 6.0},
      WorkloadProfile{.name = "leslie3d_like",
                      .pattern = Pattern::kStrided,
                      .read_fraction = 0.65,
                      .locality = 0.5,
                      .zipf_exponent = 0.0,
                      .working_set_bytes = 2ull << 30,
                      .avg_interarrival_ns = 4.0,
                      .stride_bytes = 1024},
      WorkloadProfile{.name = "libquantum_like",
                      .pattern = Pattern::kStreaming,
                      .read_fraction = 0.78,
                      .locality = 0.95,
                      .zipf_exponent = 0.0,
                      .working_set_bytes = 128ull << 20,
                      .avg_interarrival_ns = 2.5},
  };
}

WorkloadProfile profile_by_name(const std::string& name) {
  for (auto& p : spec_like_profiles()) {
    if (p.name == name) return p;
  }
  throw std::invalid_argument("profile_by_name: unknown profile " + name);
}

GeneratorSource::GeneratorSource(WorkloadProfile profile, std::uint64_t seed,
                                 std::size_t count, std::uint32_t line_bytes)
    : profile_(std::move(profile)),
      rng_(seed),
      count_(count),
      line_bytes_(line_bytes) {
  validate_profile(profile_);
  if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0) {
    throw std::invalid_argument("TraceGenerator: line size must be 2^k");
  }
  if (line_bytes > kRowBytes) {
    throw std::invalid_argument(
        "TraceGenerator: line size must not exceed the " +
        std::to_string(kRowBytes) + " B row");
  }
  lines_ = profile_.working_set_bytes / line_bytes_;
  if (lines_ == 0) {
    throw std::invalid_argument(
        "TraceGenerator: working set smaller than one line");
  }
  lines_per_row_ = kRowBytes / line_bytes_;
  stream_pos_ = rng_.next_below(lines_);
}

Request GeneratorSource::draw() {
  clock_ps_ += rng_.next_exponential(profile_.avg_interarrival_ns * 1e3);

  std::uint64_t line = 0;
  switch (profile_.pattern) {
    case Pattern::kStreaming: {
      if (rng_.next_bool(1.0 - profile_.locality)) {
        stream_pos_ = rng_.next_below(lines_);  // stream restart
      } else {
        stream_pos_ = (stream_pos_ + 1) % lines_;
      }
      line = stream_pos_;
      break;
    }
    case Pattern::kStrided: {
      const std::uint64_t stride_lines =
          std::max<std::uint64_t>(1, profile_.stride_bytes / line_bytes_);
      if (rng_.next_bool(1.0 - profile_.locality)) {
        stream_pos_ = rng_.next_below(lines_);
      } else {
        stream_pos_ = (stream_pos_ + stride_lines) % lines_;
      }
      line = stream_pos_;
      break;
    }
    case Pattern::kRandom: {
      line = rng_.next_below(lines_);
      break;
    }
    case Pattern::kPointerChase: {
      if (rng_.next_bool(profile_.locality)) {
        // Stay within the current row (short dependent run).
        const std::uint64_t row = current_line_ / lines_per_row_;
        line = row * lines_per_row_ + rng_.next_below(lines_per_row_);
      } else {
        // Jump to a Zipf-hot line scattered over the working set.
        const std::uint64_t hot = rng_.next_zipf(
            std::min(kHotLines, lines_), profile_.zipf_exponent);
        line = (hot * 2654435761ull) % lines_;
      }
      break;
    }
    case Pattern::kMixed: {
      if (!in_burst_ && rng_.next_bool(0.25)) {
        in_burst_ = true;
        burst_left_ = static_cast<int>(4 + rng_.next_below(12));
        stream_pos_ = rng_.next_below(lines_);
      }
      if (in_burst_) {
        stream_pos_ = (stream_pos_ + 1) % lines_;
        line = stream_pos_;
        if (--burst_left_ <= 0) in_burst_ = false;
      } else if (rng_.next_bool(profile_.zipf_exponent > 0 ? 0.5 : 0.0)) {
        const std::uint64_t hot = rng_.next_zipf(
            std::min(kHotLines, lines_), profile_.zipf_exponent);
        line = (hot * 2654435761ull) % lines_;
      } else {
        line = rng_.next_below(lines_);
      }
      break;
    }
  }
  current_line_ = line;

  Request req;
  req.id = emitted_++;
  req.arrival_ps = static_cast<std::uint64_t>(clock_ps_);
  req.op = rng_.next_bool(profile_.read_fraction) ? Op::kRead : Op::kWrite;
  req.address = line * line_bytes_;
  req.size_bytes = line_bytes_;
  return req;
}

std::size_t GeneratorSource::next_batch(Request* out, std::size_t max) {
  const std::size_t take = std::min(max, remaining());
  for (std::size_t i = 0; i < take; ++i) out[i] = draw();
  return take;
}

TraceGenerator::TraceGenerator(WorkloadProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)), seed_(seed) {
  validate_profile(profile_);
}

std::vector<Request> TraceGenerator::generate(
    std::size_t count, std::uint32_t line_bytes) const {
  std::vector<Request> requests(count);
  stream(count, line_bytes).next_batch(requests.data(), count);
  return requests;
}

GeneratorSource TraceGenerator::stream(std::size_t count,
                                       std::uint32_t line_bytes) const {
  return GeneratorSource(profile_, seed_, count, line_bytes);
}

}  // namespace comet::memsim

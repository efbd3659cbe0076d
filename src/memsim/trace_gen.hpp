#pragma once

#include <string>
#include <vector>

#include "memsim/source.hpp"
#include "util/rng.hpp"

/// Synthetic SPEC-like memory trace generators.
///
/// We do not ship SPEC traces (proprietary inputs); instead each profile
/// reproduces the *memory behaviour class* of a SPEC CPU workload as seen
/// at the last-level cache: read/write mix, spatial locality, hot-set
/// skew and request intensity. Fig. 9's architecture ordering depends on
/// exactly these axes, not on instruction-level content (see DESIGN.md,
/// substitutions table).
namespace comet::memsim {

/// Spatial pattern of the address stream.
enum class Pattern {
  kStreaming,     ///< Sequential lines, occasional stream restarts.
  kStrided,       ///< Fixed stride larger than a line.
  kRandom,        ///< Uniform over the working set.
  kPointerChase,  ///< Serially dependent, Zipf-hot random lines.
  kMixed,         ///< Alternating streaming bursts and random lines.
};

struct WorkloadProfile {
  std::string name;
  Pattern pattern = Pattern::kRandom;
  double read_fraction = 0.7;        ///< P(access is a read).
  double locality = 0.5;             ///< P(stay within the current 4 KB row).
  double zipf_exponent = 0.0;        ///< Hot-set skew for random patterns.
  std::uint64_t working_set_bytes = 1ull << 30;
  double avg_interarrival_ns = 8.0;  ///< Mean time between LLC misses.
  std::uint32_t stride_bytes = 256;  ///< For kStrided.
};

/// The eight SPEC-like profiles used by the Fig. 9 bench (classes follow
/// the well-known SPEC CPU memory characterization literature).
std::vector<WorkloadProfile> spec_like_profiles();

/// Returns the profile with the given name; throws std::invalid_argument
/// if absent.
WorkloadProfile profile_by_name(const std::string& name);

/// Lazy block synthesis: the streaming form of TraceGenerator::generate,
/// holding only the RNG and a few words of pattern state — O(1) memory
/// for arbitrarily long runs. The emitted sequence is bit-identical to
/// the materialized vector for the same (profile, seed, count,
/// line_bytes), however it is split into blocks; generate() is one
/// block pull from this class. Arrivals are non-decreasing by
/// construction, so the stream satisfies the engines' sorted-by-arrival
/// contract.
class GeneratorSource final : public RequestSource {
 public:
  /// Throws std::invalid_argument on an invalid profile or a
  /// non-power-of-two line size.
  GeneratorSource(WorkloadProfile profile, std::uint64_t seed,
                  std::size_t count, std::uint32_t line_bytes);

  /// Synthesizes min(max, remaining()) requests into `out`.
  std::size_t next_batch(Request* out, std::size_t max) override;

  /// Requests not yet emitted.
  std::size_t remaining() const { return count_ - emitted_; }

 private:
  /// Synthesizes the next request; the caller checks remaining() first.
  /// Its statements and their order fix the RNG draw sequence.
  Request draw();

  WorkloadProfile profile_;
  util::Rng rng_;
  std::size_t count_;
  std::size_t emitted_ = 0;
  std::uint32_t line_bytes_;
  std::uint64_t lines_;
  std::uint64_t lines_per_row_;
  double clock_ps_ = 0.0;
  std::uint64_t current_line_ = 0;
  std::uint64_t stream_pos_;
  bool in_burst_ = false;
  int burst_left_ = 0;
};

/// Deterministic trace synthesis from a profile.
class TraceGenerator {
 public:
  TraceGenerator(WorkloadProfile profile, std::uint64_t seed);

  /// Generates `count` requests with the given line size (materialized;
  /// one block pull from a GeneratorSource, so it is bit-identical to
  /// streaming).
  std::vector<Request> generate(std::size_t count,
                                std::uint32_t line_bytes) const;

  /// The lazy equivalent: a fresh source that synthesizes the same
  /// `count` requests on demand.
  GeneratorSource stream(std::size_t count, std::uint32_t line_bytes) const;

  const WorkloadProfile& profile() const { return profile_; }

 private:
  WorkloadProfile profile_;
  std::uint64_t seed_;
};

}  // namespace comet::memsim

// Long equivalence run of util::histogram_bucket, the one bucket
// lookup RunningStats::add files its samples through, against the log2
// formula it replaced, on the seeded sample mix of
// stats_bucket_reference.hpp. The samples split evenly over four
// threads, each with its own seed.
//
//   stats_equivalence [samples (default 1e8)] [seed (default 42)]
//
// Prints one line per thread (samples, mismatches, the first mismatch)
// and exits 1 on any mismatch.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "stats_bucket_reference.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

namespace ct = comet::test;
namespace cu = comet::util;

constexpr int kThreads = 4;

struct Result {
  std::uint64_t samples = 0;
  unsigned long long mismatches = 0;
  double first_mismatch = 0.0;
  double seconds = 0.0;
};

Result run(std::uint64_t samples, std::uint64_t seed) {
  cu::Rng rng(seed);
  Result result{.samples = samples};
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < samples; ++i) {
    const double x = ct::bucket_sample(rng);
    if (cu::histogram_bucket(x) != ct::histogram_bucket(x) &&
        result.mismatches++ == 0) {
      result.first_mismatch = x;
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t samples =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100'000'000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  std::vector<Result> results(kThreads);
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    // The first samples % kThreads threads take one extra sample.
    const std::uint64_t share =
        samples / kThreads + (i < int(samples % kThreads) ? 1 : 0);
    workers.emplace_back([&, i, share] { results[i] = run(share, seed + i); });
  }
  for (auto& worker : workers) worker.join();

  bool ok = true;
  for (int i = 0; i < kThreads; ++i) {
    const Result& r = results[i];
    std::printf("histogram_bucket seed=%s samples=%s mismatches=%llu",
                std::to_string(seed + i).c_str(),
                std::to_string(r.samples).c_str(), r.mismatches);
    if (r.mismatches != 0) std::printf(" first=%.17g", r.first_mismatch);
    std::printf(" (%.1f s)\n", r.seconds);
    ok = ok && r.mismatches == 0;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

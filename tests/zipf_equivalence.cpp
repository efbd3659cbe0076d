// Long equivalence run of Rng::next_zipf against the subtraction scan
// it replaced, on the generator's 4096-line hot set at every built-in
// profile exponent. Each exponent runs on its own thread.
//
//   zipf_equivalence [draws per exponent (default 1e8)] [seed (default 42)]
//
// Prints one line per exponent (draws, mismatches, scan fallbacks) and
// exits 1 on any mismatch or on two generators falling out of step.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "zipf_scan_reference.hpp"

namespace {

struct Result {
  double s = 0.0;
  unsigned long long mismatches = 0;
  unsigned long long fallbacks = 0;
  bool in_step = false;
  double seconds = 0.0;
};

Result run(double s, std::uint64_t draws, std::uint64_t seed) {
  constexpr std::uint64_t kHotLines = 4096;
  const comet::test::ScanZipf ref(kHotLines, s);
  const comet::util::ZipfTable table(kHotLines, s);
  comet::util::Rng rng(seed), ref_rng(seed);
  Result result{.s = s};
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < draws; ++i) {
    const double u = ref_rng.next_double() * ref.h;
    result.mismatches += rng.next_zipf(kHotLines, s) != ref.scan(u);
    result.fallbacks += table.index(u) == comet::util::ZipfTable::kUnsure;
  }
  result.in_step = rng.next_u64() == ref_rng.next_u64();
  const auto stop = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t draws =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100'000'000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const std::vector<double> exponents = comet::test::profile_exponents();
  std::vector<Result> results(exponents.size());
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < exponents.size(); ++i) {
    workers.emplace_back(
        [&, i] { results[i] = run(exponents[i], draws, seed + i); });
  }
  for (auto& worker : workers) worker.join();

  bool ok = true;
  for (const Result& r : results) {
    std::printf("zipf n=4096 s=%.2f draws=%s mismatches=%llu fallbacks=%llu "
                "in_step=%s (%.1f s)\n",
                r.s, std::to_string(draws).c_str(), r.mismatches,
                r.fallbacks, r.in_step ? "yes" : "no", r.seconds);
    ok = ok && r.mismatches == 0 && r.in_step;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

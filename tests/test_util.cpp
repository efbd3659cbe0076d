#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/format.hpp"
#include "util/interp.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "stats_bucket_reference.hpp"
#include "zipf_scan_reference.hpp"

namespace ct = comet::test;
namespace cu = comet::util;

// ---------------------------------------------------------------- units

TEST(Units, DbRoundTrip) {
  for (const double db : {-30.0, -3.0, 0.0, 0.2, 3.01, 15.2, 20.0}) {
    EXPECT_NEAR(cu::ratio_to_db(cu::db_to_ratio(db)), db, 1e-12);
  }
}

TEST(Units, DbmKnownValues) {
  EXPECT_NEAR(cu::mw_to_dbm(1.0), 0.0, 1e-12);
  EXPECT_NEAR(cu::mw_to_dbm(5.0), 6.9897, 1e-4);
  EXPECT_NEAR(cu::dbm_to_mw(10.0), 10.0, 1e-12);
}

TEST(Units, LossTransmissionInverse) {
  EXPECT_NEAR(cu::transmission_to_loss_db(0.5), 3.0103, 1e-4);
  EXPECT_NEAR(cu::loss_db_to_transmission(3.0103), 0.5, 1e-4);
  EXPECT_NEAR(cu::loss_db_to_transmission(0.0), 1.0, 1e-12);
}

TEST(Units, WavelengthFrequency) {
  const double f = cu::wavelength_nm_to_hz(1550.0);
  EXPECT_NEAR(f, 193.414e12, 0.01e12);
}

TEST(Units, TimeConversions) {
  EXPECT_EQ(cu::ns_to_ps(2.0), 2000u);
  EXPECT_DOUBLE_EQ(cu::ps_to_ns(1500), 1.5);
}

TEST(Units, EnergyHelpers) {
  EXPECT_DOUBLE_EQ(cu::energy_pj(5.0, 56.0), 280.0);  // 5 mW x 56 ns
  EXPECT_DOUBLE_EQ(cu::epb_pj_per_bit(1.0, 1e12), 1.0);
}

// ---------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  cu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  cu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  cu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BoundedBelow) {
  cu::Rng rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  cu::Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliMean) {
  cu::Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, GaussianMoments) {
  cu::Rng rng(17);
  cu::RunningStats st;
  for (int i = 0; i < 100000; ++i) st.add(rng.next_gaussian());
  EXPECT_NEAR(st.mean(), 0.0, 0.02);
  EXPECT_NEAR(st.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  cu::Rng rng(19);
  cu::RunningStats st;
  for (int i = 0; i < 100000; ++i) st.add(rng.next_exponential(4.0));
  EXPECT_NEAR(st.mean(), 4.0, 0.1);
}

TEST(Rng, ZipfSkewsLow) {
  cu::Rng rng(23);
  int first_bucket = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) first_bucket += (rng.next_zipf(100, 1.2) == 0);
  // Rank 0 should dominate under s = 1.2 (>= 15 % of mass for n=100).
  EXPECT_GT(first_bucket, n * 15 / 100);
}

TEST(Rng, ZipfZeroExponentIsUniformish) {
  cu::Rng rng(29);
  int first_bucket = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) first_bucket += (rng.next_zipf(10, 0.0) == 0);
  EXPECT_NEAR(first_bucket / double(n), 0.1, 0.02);
}

// ---------------------------------------------------------------- zipf

namespace {

constexpr std::uint64_t kUnsure = cu::ZipfTable::kUnsure;

// Every built-in profile's (hot set, exponent) at the common line sizes
// (the generator's hot set is 4096 lines, capped by the working set),
// plus the smallest and some odd table sizes at the same exponents.
std::vector<std::pair<std::uint64_t, double>> zipf_cases() {
  std::set<std::pair<std::uint64_t, double>> cases;
  for (const auto& profile : comet::memsim::spec_like_profiles()) {
    if (profile.zipf_exponent <= 0.0) continue;
    for (const std::uint64_t line_bytes : {64u, 128u}) {
      cases.emplace(
          std::min<std::uint64_t>(4096, profile.working_set_bytes / line_bytes),
          profile.zipf_exponent);
    }
  }
  for (const std::uint64_t n : {2, 3, 64, 1000}) {
    for (const double s : ct::profile_exponents()) cases.emplace(n, s);
  }
  return {cases.begin(), cases.end()};
}

}  // namespace

TEST(ZipfTable, TotalIsTheScansSum) {
  for (const auto& [n, s] : zipf_cases()) {
    const cu::ZipfTable table(n, s);
    const ct::ScanZipf ref(n, s);
    ASSERT_EQ(table.prefix().size(), n + 1);
    EXPECT_EQ(table.total(), ref.h) << "n=" << n << " s=" << s;
    EXPECT_EQ(table.tolerance(),
              double(n) * (std::nextafter(ref.h, HUGE_VAL) - ref.h));
  }
}

// Walks every bucket edge P_k of every case: at P_k, 1..4 ulps either
// side, at P_k +- tolerance and just beyond it, the rank equals the
// scan's. Inside the tolerance index() must defer to the scan; in the
// middle of a wide bucket it must answer by itself.
TEST(ZipfTable, EveryBucketEdgeMatchesTheScan) {
  std::uint64_t deferred = 0, answered = 0;
  for (const auto& [n, s] : zipf_cases()) {
    const cu::ZipfTable table(n, s);
    const ct::ScanZipf ref(n, s);
    const auto& p = table.prefix();
    const double h = table.total(), tol = table.tolerance();
    const auto probe = [&](double edge, double u) {
      if (!(u >= 0.0 && u <= h)) return;
      const std::uint64_t expected = ref.scan(u);
      ASSERT_EQ(table.rank(u), expected)
          << "n=" << n << " s=" << s << " u=" << u;
      const std::uint64_t fast = table.index(u);
      if (std::fabs(u - edge) <= tol) {
        EXPECT_EQ(fast, kUnsure) << "n=" << n << " s=" << s << " u=" << u;
        deferred += fast == kUnsure;
      } else if (fast != kUnsure) {
        EXPECT_EQ(fast, expected) << "n=" << n << " s=" << s << " u=" << u;
      }
    };
    for (std::uint64_t k = 0; k <= n; ++k) {
      probe(p[k], p[k]);
      double up = p[k], down = p[k];
      for (int step = 1; step <= 4; ++step) {
        up = std::nextafter(up, HUGE_VAL);
        down = std::nextafter(down, -HUGE_VAL);
        probe(p[k], up);
        probe(p[k], down);
      }
      for (const double u : {p[k] + tol, p[k] - tol}) {
        probe(p[k], u);
        probe(p[k], std::nextafter(u, HUGE_VAL));
        probe(p[k], std::nextafter(u, -HUGE_VAL));
      }
      if (k == n) continue;
      const double mid = p[k] + (p[k + 1] - p[k]) / 2;
      probe(p[k], mid);
      if (mid - p[k] > tol && p[k + 1] - mid > tol) {
        EXPECT_EQ(table.index(mid), k) << "n=" << n << " s=" << s;
        ++answered;
      }
    }
  }
  EXPECT_GT(deferred, 0u);  // The scan fallback fired.
  EXPECT_GT(answered, 0u);  // So did the indexed search.
}

// Seeded draws of next_zipf against the scan over the old cached table,
// at every profile exponent on the generator's 4096-line hot set. The
// two generators must also stay in step: one uniform per draw.
class ZipfDraws : public ::testing::TestWithParam<double> {};

TEST_P(ZipfDraws, MatchTheScan) {
  const double s = GetParam();
  const std::uint64_t n = 4096;
  const ct::ScanZipf ref(n, s);
  const std::uint64_t seed = 42 + std::uint64_t(s * 100);
  cu::Rng rng(seed), ref_rng(seed);
  std::uint64_t mismatches = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    mismatches += rng.next_zipf(n, s) != ref.draw(ref_rng);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
}

INSTANTIATE_TEST_SUITE_P(ProfileExponents, ZipfDraws,
                         ::testing::ValuesIn(ct::profile_exponents()));

// One Rng switching between (n, s) pairs rebuilds its table each time;
// n <= 1 and s <= 0 bypass the table and must not disturb it.
TEST(Rng, ZipfAlternatingParametersMatchTheScan) {
  const std::vector<std::uint64_t> ns = {4096, 4096, 64, 1, 3, 4096, 2, 1000};
  const std::vector<double> ss = {0.9, 0.6, 0.6, 0.9, 0.8, 0.0, 1.1, 0.8};
  std::vector<ct::ScanZipf> refs;
  for (std::size_t c = 0; c < ns.size(); ++c) refs.emplace_back(ns[c], ss[c]);
  cu::Rng rng(5), ref_rng(5);
  for (int i = 0; i < 200'000; ++i) {
    const std::size_t c = (i / 97) % ns.size();
    const std::uint64_t n = ns[c];
    const double s = ss[c];
    std::uint64_t expected = 0;
    if (n > 1) {
      expected = s > 0.0 ? refs[c].draw(ref_rng) : ref_rng.next_below(n);
    }
    ASSERT_EQ(rng.next_zipf(n, s), expected) << "draw " << i;
  }
  EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
}

// ---------------------------------------------------------------- interp

TEST(LinearTable, InterpolatesAndClamps) {
  cu::LinearTable t({0.0, 1.0, 2.0}, {0.0, 10.0, 40.0});
  EXPECT_DOUBLE_EQ(t(0.5), 5.0);
  EXPECT_DOUBLE_EQ(t(1.5), 25.0);
  EXPECT_DOUBLE_EQ(t(-1.0), 0.0);   // clamp low
  EXPECT_DOUBLE_EQ(t(3.0), 40.0);   // clamp high
}

TEST(LinearTable, RejectsBadInput) {
  EXPECT_THROW(cu::LinearTable({0.0, 0.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(cu::LinearTable({0.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(cu::LinearTable({0.0, 1.0}, {1.0}), std::invalid_argument);
}

TEST(LinearTable, Inverse) {
  cu::LinearTable t({0.0, 1.0, 2.0}, {0.0, 10.0, 40.0});
  EXPECT_DOUBLE_EQ(t.inverse(5.0), 0.5);
  EXPECT_DOUBLE_EQ(t.inverse(25.0), 1.5);
}

TEST(Linspace, EndpointsAndCount) {
  const auto v = cu::linspace(1530.0, 1565.0, 36);
  ASSERT_EQ(v.size(), 36u);
  EXPECT_DOUBLE_EQ(v.front(), 1530.0);
  EXPECT_DOUBLE_EQ(v.back(), 1565.0);
  EXPECT_NEAR(v[1] - v[0], 1.0, 1e-12);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, KnownSequence) {
  cu::RunningStats st;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_DOUBLE_EQ(st.variance(), 4.0);
  EXPECT_DOUBLE_EQ(st.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_DOUBLE_EQ(st.sum(), 40.0);
  EXPECT_EQ(st.count(), 8u);
}

TEST(RunningStats, EmptyIsSafe) {
  cu::RunningStats st;
  EXPECT_DOUBLE_EQ(st.mean(), 0.0);
  EXPECT_DOUBLE_EQ(st.variance(), 0.0);
  EXPECT_DOUBLE_EQ(st.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(st.p95(), 0.0);
}

TEST(RunningStats, PercentileOfConstantStreamIsExact) {
  // Min/max clamping makes single-value and constant streams exact
  // despite the log bucketing.
  cu::RunningStats st;
  st.add(42.5);
  EXPECT_DOUBLE_EQ(st.p50(), 42.5);
  for (int i = 0; i < 100; ++i) st.add(42.5);
  EXPECT_DOUBLE_EQ(st.p50(), 42.5);
  EXPECT_DOUBLE_EQ(st.p99(), 42.5);
  EXPECT_DOUBLE_EQ(st.percentile(0.0), 42.5);
  EXPECT_DOUBLE_EQ(st.percentile(1.0), 42.5);
}

TEST(RunningStats, PercentilesApproximateUniformSamples) {
  cu::RunningStats st;
  for (int i = 1; i <= 1000; ++i) st.add(double(i));
  // Log-bucket resolution is 2^(1/8): ~±4.5% relative error.
  EXPECT_NEAR(st.p50(), 500.0, 500.0 * 0.05);
  EXPECT_NEAR(st.p95(), 950.0, 950.0 * 0.05);
  EXPECT_NEAR(st.p99(), 990.0, 990.0 * 0.05);
  EXPECT_LE(st.p50(), st.p95());
  EXPECT_LE(st.p95(), st.p99());
  EXPECT_GE(st.p50(), st.min());
  EXPECT_LE(st.p99(), st.max());
}

TEST(RunningStats, PercentileHandlesZerosAndUnderflow) {
  cu::RunningStats st;
  for (int i = 0; i < 10; ++i) st.add(0.0);
  st.add(100.0);
  // The underflow bucket collapses to min().
  EXPECT_DOUBLE_EQ(st.p50(), 0.0);
  EXPECT_DOUBLE_EQ(st.percentile(1.0), 100.0);
}

TEST(RunningStats, MergeCoversPercentiles) {
  // merge() must behave as if every sample of `other` had been added
  // here — including the percentile histogram.
  cu::RunningStats a, b, combined;
  for (int i = 1; i <= 400; ++i) {
    a.add(double(i));
    combined.add(double(i));
  }
  for (int i = 401; i <= 1000; ++i) {
    b.add(double(i));
    combined.add(double(i));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.p50(), combined.p50());
  EXPECT_DOUBLE_EQ(a.p95(), combined.p95());
  EXPECT_DOUBLE_EQ(a.p99(), combined.p99());

  // Merging into an empty accumulator copies the histogram wholesale.
  cu::RunningStats empty;
  empty.merge(combined);
  EXPECT_DOUBLE_EQ(empty.p95(), combined.p95());
  // Merging an empty accumulator changes nothing.
  const double before = combined.p95();
  combined.merge(cu::RunningStats{});
  EXPECT_DOUBLE_EQ(combined.p95(), before);
}

// The percentile bucket against a verbatim copy of the log2 formula it
// replaced (stats_bucket_reference.hpp). stats_equivalence runs the
// same comparison on 10^8 samples.

namespace {

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

/// The least double the reference formula puts in bucket >= i (i >= 2),
/// bisected over every double in [2^-20, 2^41] — independently of the
/// library's own bounds.
double reference_bound(std::size_t i) {
  std::uint64_t lo = bits_of(std::ldexp(1.0, -20));
  std::uint64_t hi = bits_of(std::ldexp(1.0, 41));
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (ct::histogram_bucket(from_bits(mid)) >= i ? hi : lo) = mid;
  }
  return from_bits(hi);
}

}  // namespace

TEST(HistogramBucket, MatchesTheLog2FormulaAroundEveryBound) {
  std::size_t checked = 0;
  for (std::size_t i = 2; i < ct::kHistogramBuckets; ++i) {
    const std::uint64_t bound = bits_of(reference_bound(i));
    ASSERT_EQ(ct::histogram_bucket(from_bits(bound)), i);
    for (std::uint64_t b = bound - 4; b <= bound + 4; ++b, ++checked) {
      const double x = from_bits(b);
      ASSERT_EQ(cu::histogram_bucket(x), ct::histogram_bucket(x))
          << "bucket " << i << ", x = " << x << " (" << int(b - bound)
          << " ulp from the bound)";
    }
  }
  EXPECT_EQ(checked, (ct::kHistogramBuckets - 2) * 9);
}

TEST(HistogramBucket, MatchesTheLog2FormulaOnSpecialValues) {
  using limits = std::numeric_limits<double>;
  constexpr double kInf = limits::infinity();
  const double low = std::ldexp(1.0, -20);
  const double high = std::ldexp(1.0, 40);
  const auto same = [](double x) {
    EXPECT_EQ(cu::histogram_bucket(x), ct::histogram_bucket(x)) << x;
  };
  // Underflow: zero, negatives, NaN, subnormals, everything below 2^-20.
  for (const double x : {0.0, -0.0, -1.0, -1e300, -kInf}) same(x);
  for (const double x : {limits::quiet_NaN(), limits::denorm_min()}) same(x);
  for (const double x : {std::ldexp(1.0, -1030), limits::min()}) same(x);
  for (const double x : {std::ldexp(1.0, -21), std::nextafter(low, 0.0)}) {
    same(x);
  }
  // The edges of the histogram range, and far above it.
  for (const double x : {low, std::nextafter(low, 1.0), 1.0}) same(x);
  for (const double x : {std::nextafter(high, 0.0), high}) same(x);
  for (const double x : {std::nextafter(high, kInf), std::ldexp(1.0, 41)}) {
    same(x);
  }
  for (const double x : {1e15, 1e300, limits::max()}) same(x);
  // The formula's float-to-integer conversion of +inf is undefined
  // behaviour (x86-64 yields bucket 1); the table clamps +inf into the
  // last bucket, like every other sample from 2^40 up.
  EXPECT_EQ(cu::histogram_bucket(kInf), ct::kHistogramBuckets - 1);
}

TEST(HistogramBucket, MatchesTheLog2FormulaOnSeededSamples) {
  cu::Rng rng(42);
  std::uint64_t mismatches = 0;
  double first = 0.0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double x = ct::bucket_sample(rng);
    if (cu::histogram_bucket(x) != ct::histogram_bucket(x) &&
        mismatches++ == 0) {
      first = x;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch at " << first;
}

// RunningStats::add files each sample through histogram_bucket; an
// accumulator whose samples are filed by the reference formula's
// bucket must equal it, on the edge samples and around every bound.
TEST(HistogramBucket, AddFilesSamplesAsTheLog2FormulaDoes) {
  using limits = std::numeric_limits<double>;
  constexpr double kInf = limits::infinity();
  const double low = std::ldexp(1.0, -20);
  const double high = std::ldexp(1.0, 40);
  std::vector<double> samples = {0.0, -1.0, low, high};
  for (const double edge : {low, high}) {
    samples.push_back(std::nextafter(edge, 0.0));
    samples.push_back(std::nextafter(edge, kInf));
  }
  for (std::size_t i = 2; i < ct::kHistogramBuckets; ++i) {
    const double bound = reference_bound(i);
    samples.push_back(std::nextafter(bound, 0.0));
    samples.push_back(bound);
  }
  cu::RunningStats added;
  cu::RunningStats reference;
  for (const double x : samples) {
    added.add(x);
    reference.add(x, ct::histogram_bucket(x));
  }
  EXPECT_EQ(added.count(), samples.size());
  EXPECT_TRUE(added == reference);

  // NaN and +inf make the moments NaN, and NaN != NaN, so no two
  // accumulators holding one compare equal; their buckets show in the
  // percentiles instead. The formula's bucket of +inf is undefined
  // behaviour, so its reference is the last bucket, where the table
  // clamps every sample from 2^40 up.
  for (const double x : {limits::quiet_NaN(), kInf}) {
    const std::size_t bucket =
        std::isnan(x) ? ct::histogram_bucket(x) : ct::kHistogramBuckets - 1;
    cu::RunningStats with_add;
    cu::RunningStats with_reference;
    for (const double y : {1.0, 4.0}) {
      with_add.add(y);
      with_reference.add(y, ct::histogram_bucket(y));
    }
    with_add.add(x);
    with_reference.add(x, bucket);
    for (int p = 1; p < 100; ++p) {
      EXPECT_EQ(with_add.percentile(p / 100.0),
                with_reference.percentile(p / 100.0))
          << x << " at p" << p;
    }
  }
}

// histogram_bucket answers with one compare against the bound above the
// bucket of a bin's lower edge, which is exact only while no bin spans
// two bucket bounds (BucketTable's constructor throws otherwise). Count
// the bounds inside every bin, and check the lookup at both ends of each
// bin against the reference formula.
TEST(HistogramBucket, EveryBinSpansAtMostOneBound) {
  namespace hg = cu::histogram;
  const hg::BucketTable& table = hg::table();
  const auto edge = [](std::uint64_t bin) {
    return (hg::kFirstBin + bin) << (52 - hg::kMantissaBits);
  };
  for (std::uint64_t bin = 0; bin < hg::kBins; ++bin) {
    const double lo = from_bits(edge(bin));
    const double hi = from_bits(edge(bin + 1) - 1);  // The bin's last double.
    const auto inside = std::count_if(
        table.bounds.begin() + 1, table.bounds.end(),
        [&](double bound) { return lo < bound && bound <= hi; });
    ASSERT_LE(inside, 1) << "bin " << bin << " = [" << lo << ", " << hi
                         << "]";
    ASSERT_EQ(cu::histogram_bucket(lo), ct::histogram_bucket(lo))
        << "bin " << bin;
    ASSERT_EQ(cu::histogram_bucket(hi), ct::histogram_bucket(hi))
        << "bin " << bin;
  }
}

// ---------------------------------------------------------------- table

TEST(Table, AlignedOutputContainsCells) {
  cu::Table t({"arch", "bw"});
  t.add_row({"COMET", "123.4"});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("COMET"), std::string::npos);
  EXPECT_NE(s.find("123.4"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, CsvQuotesCommas) {
  cu::Table t({"a"});
  t.add_row({"x,y"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  cu::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(cu::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(cu::Table::sci(12345.0, 2), "1.23e+04");
}

// ------------------------------------------------------ RingQueue

TEST(RingQueue, FifoAcrossWraparound) {
  comet::util::RingQueue<int> q(4);  // power-of-two rounding from ctor
  int next_in = 0;
  int next_out = 0;
  // Push/pop in a pattern that forces head_ to wrap many times without
  // ever growing the allocation.
  for (int round = 0; round < 100; ++round) {
    while (q.size() < 3) q.push_back(next_in++);
    while (q.size() > 1) {
      EXPECT_EQ(q.front(), next_out);
      q.pop_front();
      ++next_out;
    }
  }
  EXPECT_LE(q.capacity(), 8u);  // never grew past the initial reserve
}

TEST(RingQueue, GrowsPreservingOrder) {
  comet::util::RingQueue<int> q;
  // Offset the head first so the grow copy has to unwrap a wrapped run.
  for (int i = 0; i < 6; ++i) q.push_back(i);
  for (int i = 0; i < 5; ++i) q.pop_front();
  for (int i = 6; i < 40; ++i) q.push_back(i);  // forces several grows
  ASSERT_EQ(q.size(), 35u);
  for (int i = 0; i < 35; ++i) EXPECT_EQ(q[i], i + 5);
}

TEST(RingQueue, IndexingCountsFromFront) {
  comet::util::RingQueue<int> q;
  for (int i = 0; i < 4; ++i) q.push_back(i * 10);
  q.pop_front();
  EXPECT_EQ(q[0], 10);
  EXPECT_EQ(q[2], 30);
  q[1] = 99;
  q.pop_front();
  EXPECT_EQ(q.front(), 99);
}

TEST(RingQueue, ClearResetsToEmpty) {
  comet::util::RingQueue<int> q(2);
  q.push_back(1);
  q.push_back(2);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push_back(7);
  EXPECT_EQ(q.front(), 7);
}

TEST(Format, ShortestDoubleRoundTrips) {
  EXPECT_EQ(comet::util::shortest_double(0.1), "0.1");
  EXPECT_EQ(comet::util::shortest_double(2500.0), "2.5e+03");
  EXPECT_EQ(comet::util::shortest_double(1e20), "1e+20");
  EXPECT_EQ(comet::util::shortest_double(0.0), "0");
  for (const double v : {1.0 / 3.0, 6596.5683996641455, -2.5e-300, 1e308}) {
    EXPECT_EQ(std::strtod(comet::util::shortest_double(v).c_str(), nullptr),
              v);
  }
}

TEST(Format, JsonStringEscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(comet::util::json_string("plain"), "\"plain\"");
  EXPECT_EQ(comet::util::json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(comet::util::json_string("\b\f\n\r\t"),
            "\"\\b\\f\\n\\r\\t\"");
  EXPECT_EQ(comet::util::json_string(std::string("\x01\x1f\0", 3)),
            "\"\\u0001\\u001f\\u0000\"");
  EXPECT_EQ(comet::util::json_string("caf\xc3\xa9 \x7f"),
            "\"caf\xc3\xa9 \x7f\"");
}

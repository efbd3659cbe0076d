// Host-side observability tests (src/prof + the SLO evaluation in
// memsim/metrics). The
// load-bearing gate mirrors test_sharded.cpp: attaching a Profiler must
// never change the simulated statistics — exact SimStats ==, for every
// registry device (flat and hybrid), scheduled and direct, at thread
// counts {1, 2, 8} — and every engine kind must report the same replay
// stages. Around it: the SLO grammar (parse errors, metric-name
// validation, round-trip printing), SLO evaluation, degenerate runs
// (zero and single-request sweeps with profiling and heartbeat on,
// empty-stats gating without division blowups) and the heartbeat
// thread's lifecycle including an unknown (0) request total.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/serialize.hpp"
#include "config/toml.hpp"
#include "driver/registry.hpp"
#include "driver/sweep.hpp"
#include "memsim/metrics.hpp"
#include "memsim/sharded.hpp"
#include "memsim/stats.hpp"
#include "memsim/trace_gen.hpp"
#include "prof/heartbeat.hpp"
#include "prof/profiler.hpp"
#include "prof/slo.hpp"
#include "sched/controller.hpp"

namespace ms = comet::memsim;
namespace pf = comet::prof;
namespace dr = comet::driver;
namespace sc = comet::sched;

namespace {

/// An `[slo]` document read by the config reader both front ends use:
/// the grammar plus the metric-name check.
pf::ProfSpec read_slo(const std::string& assertion) {
  const auto doc = comet::config::toml::parse_string(
      "[slo]\nassert = \"" + assertion + "\"\n", "slo.toml");
  pf::ProfSpec spec;
  comet::config::parse_slo_section(doc.root.children.at("slo"), doc.source,
                                   spec);
  return spec;
}

/// A profiler that timed the job at `wall_s` seconds.
std::unique_ptr<pf::Profiler> timed_host(double wall_s,
                                         std::uint64_t requests) {
  auto host = std::make_unique<pf::Profiler>(pf::ProfSpec{});
  host->set_run_totals(wall_s, requests);
  return host;
}

pf::ProfSpec profiling_spec() {
  pf::ProfSpec spec;
  spec.profile = true;
  return spec;
}

const std::vector<ms::Request>& shared_trace() {
  static const std::vector<ms::Request> trace =
      ms::TraceGenerator(ms::profile_by_name("gcc_like"), 7).generate(2000,
                                                                      64);
  return trace;
}

ms::SimStats run_spec(const dr::DeviceSpec& spec,
                      const std::optional<sc::ControllerConfig>& controller,
                      int threads, pf::Profiler* profiler) {
  const auto engine = spec.make_engine(controller, threads);
  return engine->run(shared_trace(), "gcc_like", nullptr, profiler);
}

}  // namespace

// ----------------------------------------------------- SLO grammar

TEST(SloParse, AcceptsEveryOperatorAndScientificThresholds) {
  const auto slo = pf::parse_slo(
      " p99_read_latency_ns <= 2500 , requests_per_s>=5e6, hit_rate>0.5,"
      "max_slowdown<3.0,wall_s==1.25e-1 ");
  ASSERT_EQ(slo.size(), 5u);
  EXPECT_EQ(slo[0].metric, "p99_read_latency_ns");
  EXPECT_EQ(slo[0].op, pf::SloPredicate::Op::kLe);
  EXPECT_EQ(slo[0].threshold, 2500.0);
  EXPECT_EQ(slo[1].op, pf::SloPredicate::Op::kGe);
  EXPECT_EQ(slo[1].threshold, 5e6);
  EXPECT_EQ(slo[2].op, pf::SloPredicate::Op::kGt);
  EXPECT_EQ(slo[3].op, pf::SloPredicate::Op::kLt);
  EXPECT_EQ(slo[4].op, pf::SloPredicate::Op::kEq);
  EXPECT_EQ(slo[4].threshold, 0.125);
}

TEST(SloParse, RejectsMalformedPredicates) {
  // The metric name is checked against the metric table when the config
  // is read, still before any run starts.
  EXPECT_THROW(read_slo("bogus_metric<=1"), comet::config::toml::ParseError);
  EXPECT_THROW(pf::parse_slo("p99_read_latency_ns"), std::invalid_argument);
  EXPECT_THROW(pf::parse_slo("p99_read_latency_ns<="), std::invalid_argument);
  EXPECT_THROW(pf::parse_slo("p99_read_latency_ns<=abc"),
               std::invalid_argument);
  EXPECT_THROW(pf::parse_slo("p99_read_latency_ns<=1e"),
               std::invalid_argument);
  EXPECT_THROW(pf::parse_slo("p99_read_latency_ns<=nan"),
               std::invalid_argument);
  EXPECT_THROW(pf::parse_slo("<=1"), std::invalid_argument);
  EXPECT_THROW(pf::parse_slo("a<=1,,b>=2"), std::invalid_argument);
  EXPECT_THROW(pf::parse_slo("p99_read_latency_ns<=1,"),
               std::invalid_argument);
  // The same malformed predicates fail through the config reader.
  EXPECT_THROW(read_slo("p99_read_latency_ns<=abc"),
               comet::config::toml::ParseError);
  EXPECT_EQ(read_slo("p99_read_latency_ns<=2500").slo.size(), 1u);
}

TEST(SloParse, OldNamesSuggestTheirJsonSpelling) {
  const std::pair<const char*, const char*> renamed[] = {
      {"avg_read_ns", "avg_read_latency_ns"},
      {"avg_write_ns", "avg_write_latency_ns"},
      {"p50_read_ns", "p50_read_latency_ns"},
      {"p95_read_ns", "p95_read_latency_ns"},
      {"p99_read_ns", "p99_read_latency_ns"},
      {"p50_write_ns", "p50_write_latency_ns"},
      {"p95_write_ns", "p95_write_latency_ns"},
      {"p99_write_ns", "p99_write_latency_ns"},
  };
  for (const auto& [old_name, json_name] : renamed) {
    try {
      read_slo(std::string(old_name) + "<=1");
      ADD_FAILURE() << old_name << " was accepted";
    } catch (const comet::config::toml::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("did you mean '") +
                                           json_name + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // A name nothing resembles gets the full list and no guess.
  try {
    ms::metric_by_name("bogus_metric");
    ADD_FAILURE() << "bogus_metric was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
    for (const ms::Metric& metric : ms::metrics()) {
      EXPECT_NE(what.find(metric.name), std::string::npos) << metric.name;
    }
  }
}

TEST(SloParse, EmptyListMeansNoGating) {
  EXPECT_TRUE(pf::parse_slo("").empty());
}

TEST(SloParse, ToStringRoundTripsThroughTheParser) {
  const std::string text =
      "p99_read_latency_ns<=2500,requests_per_s>=5e6,max_slowdown<3,"
      "hit_rate>0.55";
  const auto first = pf::parse_slo(text);
  const auto second = pf::parse_slo(pf::slo_to_string(first));
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].metric, second[i].metric);
    EXPECT_EQ(first[i].op, second[i].op);
    EXPECT_EQ(first[i].threshold, second[i].threshold);
  }
  // Integral thresholds print as integers, not scientific notation.
  EXPECT_EQ(first[0].to_string(), "p99_read_latency_ns<=2500");
  // The rest print in their shortest round-trip form.
  EXPECT_EQ(pf::parse_slo("hit_rate>0.1")[0].to_string(), "hit_rate>0.1");
  EXPECT_EQ(pf::parse_slo("wall_s<1e20")[0].to_string(), "wall_s<1e+20");
}

// ------------------------------------------------- SLO evaluation

TEST(SloEval, InapplicableMetricsAreSkippedNotViolated) {
  // Flat single-stream record: hit_rate / max_slowdown / fairness and
  // the host metrics (wall_s == 0, unprofiled) must all skip — an
  // impossible threshold stays green because it was never measured.
  const ms::SimStats stats;
  const auto slo = pf::parse_slo(
      "hit_rate>=1,max_slowdown<=0,fairness_index>=1,"
      "requests_per_s>=1e12,wall_s<=0");
  const auto outcomes = ms::evaluate_slo(slo, {stats});
  for (const auto& outcome : outcomes) {
    EXPECT_FALSE(outcome.applicable) << outcome.predicate.metric;
    EXPECT_TRUE(outcome.pass) << outcome.predicate.metric;
  }
  EXPECT_FALSE(ms::slo_violated(outcomes));
}

TEST(SloEval, ViolationIsDetectedAndNamed) {
  ms::SimStats stats;
  stats.reads = 100;
  stats.read_latency_ns.add(5000.0);
  const auto slo =
      pf::parse_slo("p99_read_latency_ns<=1,avg_queue_delay_ns>=0");
  const auto host = timed_host(0.5, 100);
  const auto outcomes = ms::evaluate_slo(slo, {stats, host.get()});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].pass);
  EXPECT_TRUE(outcomes[1].pass);
  EXPECT_TRUE(ms::slo_violated(outcomes));
  EXPECT_EQ(outcomes[0].predicate.to_string(), "p99_read_latency_ns<=1");
}

// -------------------------------------------------- ProfSpec basics

TEST(ProfSpec, EnabledIsTheUnionOfTheThreeLegs) {
  pf::ProfSpec spec;
  EXPECT_FALSE(spec.enabled());
  spec.profile = true;
  EXPECT_TRUE(spec.profiling());
  EXPECT_TRUE(spec.enabled());
  spec = pf::ProfSpec{};
  spec.progress_ms = 250;
  EXPECT_TRUE(spec.heartbeat());
  EXPECT_TRUE(spec.enabled());
  spec = pf::ProfSpec{};
  spec.slo = pf::parse_slo("wall_s<=60");
  EXPECT_TRUE(spec.gating());
  EXPECT_TRUE(spec.enabled());
}

TEST(Profiler, RequestsPerSecondGuardsDegenerateRuns) {
  pf::Profiler profiler(profiling_spec());
  EXPECT_EQ(profiler.requests_per_second(), 0.0);
  profiler.set_run_totals(0.0, 0);
  EXPECT_EQ(profiler.requests_per_second(), 0.0);
  profiler.set_run_totals(2.0, 1000);
  EXPECT_EQ(profiler.requests_per_second(), 500.0);
}

// ------------------------------------------------- degenerate sweeps

TEST(DegenerateRuns, ZeroAndSingleRequestAcrossEngineShapes) {
  // Every engine shape (flat direct, scheduled, sharded, hybrid) at 0
  // and 1 requests with profiling AND heartbeat enabled: no hangs, no
  // division blowups, and the simulated counts still add up.
  pf::ProfSpec spec = profiling_spec();
  spec.progress_ms = 1;

  struct Shape {
    const char* token;
    std::optional<sc::ControllerConfig> controller;
    int run_threads;
  };
  const Shape shapes[] = {
      {"comet", std::nullopt, 1},
      {"comet", sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 8, 8),
       1},
      {"comet", std::nullopt, 4},
      {"hybrid-comet", std::nullopt, 1},
  };
  for (const Shape& shape : shapes) {
    for (const std::size_t requests : {std::size_t{0}, std::size_t{1}}) {
      dr::SweepJob job;
      job.device = dr::make_device_spec(shape.token);
      job.profile = ms::profile_by_name("gcc_like");
      job.requests = requests;
      job.run_threads = shape.run_threads;
      job.controller = shape.controller;
      job.profile_spec = spec;

      pf::Profiler profiler(spec);
      std::ostringstream sink;
      std::vector<const pf::Profiler*> watched{&profiler};
      pf::Heartbeat heartbeat(sink, spec.progress_ms, watched, requests);
      const ms::SimStats stats = dr::run_job(job, nullptr, &profiler);
      heartbeat.stop();

      const std::string label = std::string(shape.token) + "/rt" +
                                std::to_string(shape.run_threads) + "/n" +
                                std::to_string(requests);
      EXPECT_EQ(stats.reads + stats.writes, requests) << label;
      EXPECT_EQ(profiler.progress(), requests) << label;
      EXPECT_EQ(profiler.run_requests(), requests) << label;
      EXPECT_GE(profiler.wall_seconds(), 0.0) << label;
      EXPECT_TRUE(std::isfinite(profiler.requests_per_second())) << label;

      // Gating an empty/near-empty record must not divide by zero.
      const auto outcomes =
          ms::evaluate_slo(pf::parse_slo("requests_per_s>=0,wall_s>=0"),
                           {stats, &profiler});
      for (const auto& outcome : outcomes) {
        EXPECT_TRUE(std::isfinite(outcome.value)) << label;
      }
    }
  }
}

// ----------------------------------------------------- heartbeat

TEST(Heartbeat, UnknownTotalPrintsCountsWithoutEta) {
  pf::Profiler profiler(profiling_spec());
  profiler.add_progress(1234);
  std::ostringstream out;
  {
    pf::Heartbeat heartbeat(out, 1, {&profiler}, /*total_requests=*/0);
    heartbeat.stop();
    heartbeat.stop();  // Idempotent.
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("req"), std::string::npos);
  EXPECT_EQ(text.find("ETA"), std::string::npos);
  EXPECT_EQ(text.find('%'), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Heartbeat, KnownTotalReportsPercentAndSurvivesZeroProgress) {
  pf::Profiler profiler(profiling_spec());
  std::ostringstream out;
  {
    pf::Heartbeat heartbeat(out, 1, {&profiler}, /*total_requests=*/1000);
  }  // Destructor stops; zero progress must not divide by zero.
  EXPECT_NE(out.str().find('%'), std::string::npos);
}

TEST(Heartbeat, SumsProgressAcrossProfilers) {
  pf::Profiler a(profiling_spec());
  pf::Profiler b(profiling_spec());
  a.add_progress(600);
  b.add_progress(400);
  std::ostringstream out;
  pf::Heartbeat heartbeat(out, 1, {&a, &b}, 1000);
  heartbeat.stop();
  EXPECT_NE(out.str().find("100.0%"), std::string::npos) << out.str();
}

// ------------------------------------- profiled-vs-unprofiled gate

TEST(ProfiledBitIdentity, EveryFlatRegistryDeviceEveryThreadCount) {
  for (const auto& token : dr::known_devices()) {
    const dr::DeviceSpec spec = dr::make_device_spec(token);
    const ms::SimStats plain = run_spec(spec, std::nullopt, 1, nullptr);
    for (const int threads : {1, 2, 8}) {
      pf::Profiler profiler(profiling_spec());
      EXPECT_TRUE(run_spec(spec, std::nullopt, threads, &profiler) == plain)
          << token << "/t" << threads;
      EXPECT_EQ(profiler.progress(), shared_trace().size()) << token;
    }
  }
}

TEST(ProfiledBitIdentity, EveryHybridRegistryDeviceEveryThreadCount) {
  for (const auto& token : dr::known_hybrid_devices()) {
    const dr::DeviceSpec spec = dr::make_device_spec(token);
    const ms::SimStats plain = run_spec(spec, std::nullopt, 1, nullptr);
    for (const int threads : {1, 2, 8}) {
      pf::Profiler profiler(profiling_spec());
      EXPECT_TRUE(run_spec(spec, std::nullopt, threads, &profiler) == plain)
          << token << "/t" << threads;
    }
  }
}

TEST(ProfiledBitIdentity, ScheduledEnginesMatchWithProfilingOn) {
  const dr::DeviceSpec spec = dr::make_device_spec("comet");
  const auto controller =
      sc::ControllerConfig::with_depths(sc::Policy::kReadFirst, 8, 8);
  const ms::SimStats plain = run_spec(spec, controller, 1, nullptr);
  for (const int threads : {1, 2, 8}) {
    pf::Profiler profiler(profiling_spec());
    EXPECT_TRUE(run_spec(spec, controller, threads, &profiler) == plain)
        << "sched/t" << threads;
  }
}

TEST(ProfiledBitIdentity, PoolProfileAccountsForEveryRequest) {
  const dr::DeviceSpec spec = dr::make_device_spec("comet");
  pf::Profiler profiler(profiling_spec());
  run_spec(spec, std::nullopt, 4, &profiler);
  ASSERT_EQ(profiler.pools().size(), 1u);
  const pf::PoolProfile& pool = *profiler.pools()[0];
  EXPECT_EQ(pool.threads, 4);
  std::uint64_t lane_requests = 0;
  for (const auto& lane : pool.lanes) lane_requests += lane.requests;
  EXPECT_EQ(lane_requests, shared_trace().size());
  // Every pushed block is fed exactly once.
  std::uint64_t lane_blocks = 0;
  for (const auto& lane : pool.lanes) lane_blocks += lane.blocks;
  EXPECT_EQ(lane_blocks, pool.blocks_pushed);
  const double utilization = pool.utilization();
  EXPECT_GE(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);
}

TEST(ProfiledStages, EveryEngineKindRecordsTheSameStageSet) {
  // One replay loop times every engine: the pulls, the feeds, the stage
  // drain (lane flush, controller queues, worker join) and the merge.
  struct Kind {
    const char* token;
    std::optional<sc::ControllerConfig> controller;
    int run_threads;
  };
  const Kind kinds[] = {
      {"comet", std::nullopt, 1},
      {"comet", std::nullopt, 4},
      {"comet", sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 8, 8),
       1},
      {"hybrid-comet", std::nullopt, 1},
  };
  const std::uint64_t blocks =
      (shared_trace().size() + ms::kFeedBlockRequests - 1) /
      ms::kFeedBlockRequests;
  for (const Kind& kind : kinds) {
    pf::Profiler profiler(profiling_spec());
    run_spec(dr::make_device_spec(kind.token), kind.controller,
             kind.run_threads, &profiler);
    const std::string label = std::string(kind.token) + "/" +
                              (kind.controller ? "sched" : "direct") + "/t" +
                              std::to_string(kind.run_threads);
    std::vector<std::string> names;
    for (const auto& [name, stage] : profiler.stages()) names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{"engine_feed", "lane_drain",
                                               "shard_merge", "source_pull"}))
        << label;
    const auto& stages = profiler.stages();
    ASSERT_EQ(stages.count("source_pull"), 1u) << label;
    EXPECT_EQ(stages.at("source_pull").calls, blocks) << label;
    EXPECT_EQ(stages.at("engine_feed").calls, blocks) << label;
    EXPECT_EQ(stages.at("lane_drain").calls, 1u) << label;
    EXPECT_EQ(stages.at("shard_merge").calls, 1u) << label;
  }
}

TEST(ProfiledStages, ThreadedHybridCallerStagesPlusSourceWaitCoverTheRun) {
  // A threaded run pulls the source on a producer thread, so source_pull
  // overlaps the caller's stages and is left out; the caller's own
  // clock is the feed, the drain, the merge and the wait for filled
  // blocks. Those must account for the run's wall time.
  const auto trace = ms::TraceGenerator(ms::profile_by_name("mcf_like"), 9)
                         .generate(200000, 64);
  const auto engine = dr::make_device_spec("hybrid-comet")
                          .make_engine(sc::ControllerConfig::with_depths(
                                           sc::Policy::kFrFcfsCap, 32, 32),
                                       3);
  pf::Profiler profiler(profiling_spec());
  const auto start = std::chrono::steady_clock::now();
  engine->run(trace, "mcf_like", nullptr, &profiler);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

  const auto& stages = profiler.stages();
  const double caller_s = stages.at("engine_feed").wall_s +
                          stages.at("lane_drain").wall_s +
                          stages.at("shard_merge").wall_s +
                          profiler.source_wait_seconds();
  EXPECT_GT(profiler.source_wait_seconds(), 0.0);
  EXPECT_GT(stages.at("source_pull").wall_s, 0.0);
  EXPECT_LE(caller_s, wall_s);
  // Engine construction, lane setup and thread start-up are the rest.
  EXPECT_GE(caller_s, 0.75 * wall_s)
      << "caller " << caller_s << " s of " << wall_s << " s";

  // Workers finish their own lanes, and that time is lane busy time.
  // Each worker's busy time is its own lanes' (lane % workers), summed
  // in lane order, so the sums agree exactly.
  ASSERT_EQ(profiler.pools().size(), 1u);
  const pf::PoolProfile& pool = *profiler.pools()[0];
  ASSERT_FALSE(pool.workers.empty());
  for (std::size_t w = 0; w < pool.workers.size(); ++w) {
    double lane_busy_s = 0.0;
    for (std::size_t lane = w; lane < pool.lanes.size();
         lane += pool.workers.size()) {
      lane_busy_s += pool.lanes[lane].busy_s;
    }
    EXPECT_GT(lane_busy_s, 0.0) << "worker " << w;
    EXPECT_EQ(pool.workers[w].busy_s, lane_busy_s) << "worker " << w;
  }
}

TEST(ProfiledStages, SerialCallerStagesCoverTheRun) {
  // A serial run drains, merges and feeds on the caller's thread. It
  // pulls there too, unless a flat run found its generator costly
  // enough to hand to a producer after a few inline blocks: then the
  // caller's clock is its threaded twin's, the wait for filled blocks
  // in place of the pulls. Either way those stages must account for
  // the run's wall time.
  const auto spec = dr::make_device_spec("comet");
  const std::optional<sc::ControllerConfig> flat;
  const std::optional<sc::ControllerConfig> frfcfs =
      sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 32, 32);
  for (const auto& controller : {flat, frfcfs}) {
    const std::string label = controller ? "frfcfs" : "flat";
    const auto engine = spec.make_engine(controller);
    ms::GeneratorSource source(ms::profile_by_name("lbm_like"), 5, 200000, 64);
    pf::Profiler profiler(profiling_spec());
    const auto start = std::chrono::steady_clock::now();
    engine->run(source, "lbm_like", nullptr, &profiler);
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();

    const auto& stages = profiler.stages();
    const bool pipelined = profiler.source_wait_seconds() > 0.0;
    EXPECT_FALSE(controller && pipelined) << "scheduled lanes pull inline";
    const double caller_s = (pipelined ? profiler.source_wait_seconds()
                                       : stages.at("source_pull").wall_s) +
                            stages.at("engine_feed").wall_s +
                            stages.at("lane_drain").wall_s +
                            stages.at("shard_merge").wall_s;
    EXPECT_LE(caller_s, wall_s) << label;
    // Engine run set-up (sessions, lanes, telemetry stages) is the rest.
    EXPECT_GE(caller_s, 0.75 * wall_s)
        << label << (pipelined ? " (pipelined)" : "") << ": caller "
        << caller_s << " s of " << wall_s << " s";
  }
}

TEST(ProfiledStages, SerialRunsWaitForNoProducer) {
  pf::Profiler profiler(profiling_spec());
  run_spec(dr::make_device_spec("hybrid-comet"), std::nullopt, 1, &profiler);
  EXPECT_EQ(profiler.source_wait_seconds(), 0.0);
}

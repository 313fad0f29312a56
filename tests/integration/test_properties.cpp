// Property-style parameterized sweeps over the whole stack: invariants that
// must hold for every platform / server count / workload combination.
#include <gtest/gtest.h>

#include <tuple>

#include "mach/platforms_db.hpp"
#include "model/prediction.hpp"
#include "opal/parallel.hpp"
#include "opal/serial.hpp"
#include "pvm/pvm_system.hpp"
#include "sim/engine.hpp"

namespace {

using namespace opalsim;

const char* platform_short_name(std::size_t idx) {
  switch (idx) {
    case 0: return "T3E";
    case 1: return "J90";
    case 2: return "SlowCoPs";
    case 3: return "SmpCoPs";
    default: return "FastCoPs";
  }
}

// ---------------------------------------------------------------------------
// Ping-pong time on every platform equals the model's b1 + bytes/a1 (no
// contention with a single message in flight).
class PingPongProperty : public ::testing::TestWithParam<
                             std::tuple<std::size_t, std::size_t>> {};
// param: (platform index, payload bytes)

TEST_P(PingPongProperty, OneWayTimeMatchesLinearModel) {
  const auto [plat_idx, payload] = GetParam();
  const auto spec = mach::prediction_platforms()[plat_idx];
  sim::Engine engine;
  mach::Machine machine(engine, spec, 2);
  pvm::PvmSystem pvm(machine);
  double arrived_at = -1.0;
  pvm.spawn(0, [&](pvm::PvmTask& t) -> sim::Task<void> {
    pvm::PackBuffer b;
    b.pack_f64_array(std::vector<double>(payload / 8, 1.0));
    co_await t.send(1, 0, std::move(b));
  });
  pvm.spawn(1, [&](pvm::PvmTask& t) -> sim::Task<void> {
    (void)co_await t.recv();
    arrived_at = t.engine().now();
  });
  engine.run();
  const double bytes = static_cast<double>((payload / 8) * 8 + 8);  // +len
  const double expect =
      spec.net.latency_s + bytes / (spec.net.observed_MBps * 1e6);
  EXPECT_NEAR(arrived_at, expect, 1e-9 + 1e-6 * expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatformsAndSizes, PingPongProperty,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u, 4u),
                       ::testing::Values(0u, 4096u, 1u << 20)),
    [](const auto& param_info) {
      return std::string(
                 platform_short_name(std::get<0>(param_info.param))) +
             "_" + std::to_string(std::get<1>(param_info.param)) + "B";
    });

// ---------------------------------------------------------------------------
// For every platform and p, the measured breakdown satisfies structural
// invariants: components non-negative, accounted ~ wall (barrier mode),
// total server work independent of p with the uniform strategy.
class BreakdownProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(BreakdownProperty, StructuralInvariants) {
  const auto [plat_idx, p] = GetParam();
  const auto spec = mach::prediction_platforms()[plat_idx];
  opal::SyntheticSpec s;
  s.n_solute = 60;
  s.n_water = 120;
  auto mc = opal::make_synthetic_complex(s);
  opal::SimulationConfig cfg;
  cfg.steps = 3;
  cfg.cutoff = 8.0;
  cfg.update_every = 3;
  cfg.strategy = opal::DistributionStrategy::PseudoRandomUniform;
  opal::ParallelOpal run(spec, std::move(mc), p, cfg);
  const auto r = run.run();
  const auto& m = r.metrics;

  EXPECT_GE(m.par_update, 0.0);
  EXPECT_GE(m.par_nbint, 0.0);
  EXPECT_GE(m.seq_comp, 0.0);
  EXPECT_GE(m.call_upd, 0.0);
  EXPECT_GE(m.return_upd, 0.0);
  EXPECT_GE(m.call_nbi, 0.0);
  EXPECT_GE(m.return_nbi, 0.0);
  EXPECT_GE(m.sync, 0.0);
  EXPECT_GE(m.idle, 0.0);
  EXPECT_GT(m.wall, 0.0);
  // Every interval of the client's wall clock is attributed (barrier mode).
  EXPECT_NEAR(m.accounted(), m.wall, 0.03 * m.wall);
  // Sync is exactly 2 b5 per RPC round.
  const double rpc_rounds = 3.0 + 1.0;  // 3 nbint + 1 update
  EXPECT_NEAR(m.sync, 2.0 * rpc_rounds * spec.sync_time_s, 1e-12);
  // Pairs conserved across the partition.
  const std::uint64_t tri = 180ull * 179ull / 2ull;
  EXPECT_EQ(m.pairs_checked, tri);  // one update sweep
  EXPECT_EQ(r.server_busy.size(), static_cast<std::size_t>(p));
}

INSTANTIATE_TEST_SUITE_P(
    PlatformsTimesServers, BreakdownProperty,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u, 4u),
                       ::testing::Values(1, 2, 5, 7)),
    [](const auto& param_info) {
      return std::string(
                 platform_short_name(std::get<0>(param_info.param))) +
             "_p" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Serial == parallel physics across a grid of (cutoff, update, strategy).
class PhysicsEquivalenceProperty
    : public ::testing::TestWithParam<
          std::tuple<double, int, opal::DistributionStrategy>> {};

TEST_P(PhysicsEquivalenceProperty, EnergiesMatch) {
  const auto [cutoff, upd, strategy] = GetParam();
  opal::SyntheticSpec s;
  s.n_solute = 40;
  s.n_water = 80;
  auto mc = opal::make_synthetic_complex(s);
  opal::SimulationConfig cfg;
  cfg.steps = 5;
  cfg.cutoff = cutoff;
  cfg.update_every = upd;
  cfg.strategy = strategy;
  opal::SerialOpal serial(mc, cfg);
  const auto want = serial.run();
  opal::ParallelOpal par(mach::smp_cops(), mc, 6, cfg);
  const auto got = par.run();
  const double scale = std::max(1.0, std::abs(want.potential()));
  EXPECT_NEAR(got.physics.potential(), want.potential(), 1e-8 * scale);
  EXPECT_NEAR(got.physics.temperature, want.temperature,
              1e-8 * std::max(1.0, want.temperature));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PhysicsEquivalenceProperty,
    ::testing::Combine(
        ::testing::Values(-1.0, 6.0, 12.0),
        ::testing::Values(1, 5),
        ::testing::Values(opal::DistributionStrategy::PseudoRandomHistorical,
                          opal::DistributionStrategy::Folded)),
    [](const auto& param_info) {
      const double c = std::get<0>(param_info.param);
      const int u = std::get<1>(param_info.param);
      const bool hist = std::get<2>(param_info.param) ==
                        opal::DistributionStrategy::PseudoRandomHistorical;
      return std::string(c < 0 ? "NoCut" : (c < 10 ? "Cut6" : "Cut12")) +
             "_u" + std::to_string(u) + (hist ? "_hist" : "_folded");
    });

// ---------------------------------------------------------------------------
// Model monotonicity sweeps: predicted total decreases in a1, increases in
// b1, n, s for every platform's parameter set.
class ModelMonotonicityProperty
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModelMonotonicityProperty, TotalRespondsCorrectlyToParameters) {
  const auto spec = mach::prediction_platforms()[GetParam()];
  const model::ModelParams base = model::theoretical_params(spec);
  model::AppParams app;
  app.s = 10;
  app.p = 4;
  app.u = 0.5;
  app.n = 2000;
  app.gamma = 0.6;
  app.ntilde = 150;

  const double t0 = model::predict_total(base, app);

  model::ModelParams faster_net = base;
  faster_net.a1 *= 2.0;
  EXPECT_LT(model::predict_total(faster_net, app), t0);

  model::ModelParams worse_latency = base;
  worse_latency.b1 *= 3.0;
  EXPECT_GT(model::predict_total(worse_latency, app), t0);

  model::AppParams bigger = app;
  bigger.n *= 2.0;
  EXPECT_GT(model::predict_total(base, bigger), t0);

  model::AppParams longer = app;
  longer.s *= 2.0;
  EXPECT_NEAR(model::predict_total(base, longer), 2.0 * t0, 1e-9 * t0);
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, ModelMonotonicityProperty,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u),
                         [](const auto& param_info) {
                           return std::string(
                               platform_short_name(param_info.param));
                         });

}  // namespace

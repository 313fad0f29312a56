#include "opal/decomp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mach/platforms_db.hpp"
#include "opal/pairs.hpp"
#include "opal/parallel.hpp"
#include "opal/serial.hpp"

namespace {

using opalsim::opal::build_domains;
using opalsim::opal::call_bytes_per_step;
using opalsim::opal::fd_grid;
using opalsim::opal::kMaxCenters;
using opalsim::opal::kModelPairBytes;
using opalsim::opal::MassCenter;
using opalsim::opal::make_synthetic_complex;
using opalsim::opal::Method;
using opalsim::opal::MolecularComplex;
using opalsim::opal::ParallelOpal;
using opalsim::opal::run_with_method;
using opalsim::opal::SerialOpal;
using opalsim::opal::SimResult;
using opalsim::opal::SimulationConfig;
using opalsim::opal::SyntheticSpec;
using opalsim::opal::Vec3;

MolecularComplex mc_of(std::size_t solute, std::uint64_t seed = 42) {
  SyntheticSpec s;
  s.n_solute = solute;
  s.n_water = 2 * solute;
  s.seed = seed;
  return make_synthetic_complex(s);
}

TEST(FdGrid, FactorizesNearSquare) {
  EXPECT_EQ(fd_grid(1), (std::pair<int, int>{1, 1}));
  EXPECT_EQ(fd_grid(4), (std::pair<int, int>{2, 2}));
  EXPECT_EQ(fd_grid(6), (std::pair<int, int>{2, 3}));
  EXPECT_EQ(fd_grid(7), (std::pair<int, int>{1, 7}));  // prime: 1 x p
  EXPECT_EQ(fd_grid(12), (std::pair<int, int>{3, 4}));
}

TEST(FdGrid, RejectsNonPositive) {
  EXPECT_THROW(fd_grid(0), std::invalid_argument);
}

TEST(CallBytes, RdScalesLinearlyInP) {
  EXPECT_DOUBLE_EQ(call_bytes_per_step(Method::ReplicatedData, 1000, 4),
                   24.0 * 1000 * 4);
}

TEST(CallBytes, FdHasSqrtPAdvantage) {
  const double rd = call_bytes_per_step(Method::ReplicatedData, 4096, 16);
  const double fd = call_bytes_per_step(Method::ForceDecomposition, 4096, 16);
  // 16 = 4x4 grid: per server 2n/4 vs n -> total 8n vs 16n.
  EXPECT_NEAR(fd / rd, 0.5, 1e-12);
}

TEST(CallBytes, SdBeatsRdForSmallGhosts) {
  const double rd = call_bytes_per_step(Method::ReplicatedData, 4096, 8);
  const double sd =
      call_bytes_per_step(Method::SpaceDecomposition, 4096, 8, 0.05);
  EXPECT_LT(sd, 0.25 * rd);
}

struct DecompCase {
  Method method;
  int servers;
  double cutoff;
  int update_every;
};

class DecompEquivalence : public ::testing::TestWithParam<DecompCase> {};

TEST_P(DecompEquivalence, PhysicsMatchesSerial) {
  const auto& pc = GetParam();
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = pc.cutoff;
  cfg.update_every = pc.update_every;

  SerialOpal serial(mc_of(40), cfg);
  const SimResult want = serial.run();

  const auto got = run_with_method(pc.method, opalsim::mach::fast_cops(),
                                   mc_of(40), pc.servers, cfg);
  const double scale = std::max(1.0, std::abs(want.potential()));
  EXPECT_NEAR(got.physics.potential(), want.potential(), 1e-8 * scale)
      << "evdw " << got.physics.evdw << " vs " << want.evdw << ", ecoul "
      << got.physics.ecoul << " vs " << want.ecoul;
  EXPECT_NEAR(got.physics.temperature, want.temperature,
              1e-8 * std::max(1.0, want.temperature));
}

INSTANTIATE_TEST_SUITE_P(
    MethodsSweep, DecompEquivalence,
    ::testing::Values(
        DecompCase{Method::SpaceDecomposition, 1, -1.0, 1},
        DecompCase{Method::SpaceDecomposition, 3, -1.0, 1},
        DecompCase{Method::SpaceDecomposition, 4, 9.0, 1},
        DecompCase{Method::SpaceDecomposition, 5, 9.0, 2},
        DecompCase{Method::SpaceDecomposition, 7, -1.0, 4},
        DecompCase{Method::ForceDecomposition, 1, -1.0, 1},
        DecompCase{Method::ForceDecomposition, 4, -1.0, 1},
        DecompCase{Method::ForceDecomposition, 6, 9.0, 1},
        DecompCase{Method::ForceDecomposition, 7, 9.0, 2},
        DecompCase{Method::ForceDecomposition, 4, -1.0, 4},
        DecompCase{Method::ReplicatedData, 5, 9.0, 2}),
    [](const auto& param_info) {
      const auto& c = param_info.param;
      std::string name = c.method == Method::SpaceDecomposition   ? "SD"
                         : c.method == Method::ForceDecomposition ? "FD"
                                                                  : "RD";
      name += "_p" + std::to_string(c.servers);
      name += c.cutoff > 0 ? "_cut" : "_nocut";
      name += "_u" + std::to_string(c.update_every);
      return name;
    });

TEST(Decomp, PairsEvaluatedConservedAcrossMethods) {
  SimulationConfig cfg;
  cfg.steps = 3;
  cfg.cutoff = 9.0;
  std::uint64_t counts[3];
  int k = 0;
  for (Method m : {Method::ReplicatedData, Method::SpaceDecomposition,
                   Method::ForceDecomposition}) {
    const auto r = run_with_method(m, opalsim::mach::fast_cops(), mc_of(50),
                                   5, cfg);
    counts[k++] = r.metrics.pairs_evaluated;
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[2]);
}

TEST(Decomp, FdShipsFewerBytesThanRd) {
  // FD's total coordinate volume is n(a+b) vs RD's n*p, so the advantage
  // appears for p > 4 (p = 6 -> 2x3 grid -> 5n vs 6n).  Use the fast
  // (bandwidth-dominated) network so call time ~ bytes.
  SimulationConfig cfg;
  cfg.steps = 3;
  auto run_bytes = [&](Method m) {
    const auto r =
        run_with_method(m, opalsim::mach::fast_cops(), mc_of(400), 6, cfg);
    return r.metrics.call_nbi;
  };
  EXPECT_LT(run_bytes(Method::ForceDecomposition),
            0.93 * run_bytes(Method::ReplicatedData));
}

TEST(Decomp, SdWithCutoffShipsFarFewerBytesThanRd) {
  SimulationConfig cfg;
  cfg.steps = 3;
  cfg.cutoff = 6.0;
  auto run_call_time = [&](Method m) {
    const auto r =
        run_with_method(m, opalsim::mach::fast_cops(), mc_of(400), 6, cfg);
    return r.metrics.call_nbi;
  };
  EXPECT_LT(run_call_time(Method::SpaceDecomposition),
            0.6 * run_call_time(Method::ReplicatedData));
}

TEST(Decomp, SdUpdateCostLowerWithCutoff) {
  // SD's update sweep only checks own x (own+ghost) pairs, far fewer than
  // the full triangle the RD servers collectively check.
  SimulationConfig cfg;
  cfg.steps = 2;
  cfg.cutoff = 6.0;
  const auto rd = run_with_method(Method::ReplicatedData,
                                  opalsim::mach::fast_cops(), mc_of(150), 4,
                                  cfg);
  const auto sd = run_with_method(Method::SpaceDecomposition,
                                  opalsim::mach::fast_cops(), mc_of(150), 4,
                                  cfg);
  EXPECT_LT(sd.metrics.pairs_checked, rd.metrics.pairs_checked);
}

TEST(Decomp, DeterministicVirtualTime) {
  SimulationConfig cfg;
  cfg.steps = 2;
  auto once = [&](Method m) {
    return run_with_method(m, opalsim::mach::smp_cops(), mc_of(40), 3, cfg)
        .metrics.wall;
  };
  EXPECT_DOUBLE_EQ(once(Method::SpaceDecomposition),
                   once(Method::SpaceDecomposition));
  EXPECT_DOUBLE_EQ(once(Method::ForceDecomposition),
                   once(Method::ForceDecomposition));
}

TEST(Decomp, RejectsZeroServers) {
  SimulationConfig cfg;
  cfg.steps = 1;
  EXPECT_THROW(run_with_method(Method::SpaceDecomposition,
                               opalsim::mach::fast_cops(), mc_of(20), 0, cfg),
               std::invalid_argument);
}

TEST(Decomp, RejectsComplexBeyondPairIndexLimit) {
  // Every entry point refuses before it allocates a pair list.
  MolecularComplex mc;
  mc.centers.resize(kMaxCenters + 1);
  SimulationConfig cfg;
  cfg.steps = 1;
  for (Method m : {Method::ReplicatedData, Method::SpaceDecomposition,
                   Method::ForceDecomposition}) {
    EXPECT_THROW(run_with_method(m, opalsim::mach::fast_cops(), mc, 2, cfg),
                 std::invalid_argument)
        << to_string(m);
  }
  EXPECT_THROW(ParallelOpal(opalsim::mach::fast_cops(), mc, 2, cfg),
               std::invalid_argument);
  EXPECT_THROW(SerialOpal(mc, cfg), std::invalid_argument);
}

/// A run's virtual-time breakdown, recorded while PairIdx was 8 bytes.
struct PinnedRun {
  Method method;
  double par_update, par_nbint, seq_comp, sync, idle, wall;
  std::uint64_t pairs_checked, pairs_evaluated;
  std::vector<double> server_busy;
};

// The cache model charges pair lists at the paper's 2*4 bytes per pair, not
// at the host struct's 4.  On the T3E (96 KB cache), 210 centres over two
// servers put a server of every method above the cache at 8 B/pair and
// inside it at 4 B/pair, so charging the host size moves these values.
TEST(ModelPairBytes, CacheModelChargesPaperBytesPerPair) {
  const auto t3e = opalsim::mach::cray_t3e900();
  const MolecularComplex mc = mc_of(70);
  ASSERT_EQ(mc.n(), 210u);
  SimulationConfig cfg;
  cfg.steps = 2;
  cfg.cutoff = -1.0;

  // RD's server 0 straddles the cache: the guard is not vacuous.
  const auto domains = build_domains(210, 2, cfg.strategy, cfg.seed);
  const std::size_t centres = 210 * (sizeof(MassCenter) + sizeof(Vec3));
  const std::size_t cache = t3e.cpu.memory.cache_bytes;
  EXPECT_GT(centres + domains[0].size() * kModelPairBytes, cache);
  EXPECT_LE(centres + domains[0].size() * 4, cache);

  const std::vector<PinnedRun> pinned = {
      {Method::ReplicatedData, 0.0036368175824175826, 0.018184087912087914,
       0.00094442857142857002, 0.00015999999999999999, 0.0031017298901098844,
       0.026828463956043949, 43890u, 43890u,
       {0.025173415384615382, 0.018468395604395609}},
      {Method::SpaceDecomposition, 0.0037137692307692314,
       0.018568846153846155, 0.00093185714285714052, 0.00015999999999999999,
       0.010821484615384614, 0.034873837142857141, 43890u, 43890u,
       {0.033264000000000002, 0.011301230769230772}},
      {Method::ForceDecomposition, 0.0037137692307692314,
       0.018568846153846158, 0.00094442857142856829, 0.00015999999999999999,
       0.011194615384615383, 0.035418579340659347, 43890u, 43890u,
       {0.011088000000000002, 0.033477230769230773}},
  };
  for (const PinnedRun& want : pinned) {
    SCOPED_TRACE(to_string(want.method));
    const auto got = run_with_method(want.method, t3e, mc, 2, cfg);
    EXPECT_DOUBLE_EQ(got.metrics.par_update, want.par_update);
    EXPECT_DOUBLE_EQ(got.metrics.par_nbint, want.par_nbint);
    EXPECT_DOUBLE_EQ(got.metrics.seq_comp, want.seq_comp);
    EXPECT_DOUBLE_EQ(got.metrics.sync, want.sync);
    EXPECT_DOUBLE_EQ(got.metrics.idle, want.idle);
    EXPECT_DOUBLE_EQ(got.metrics.wall, want.wall);
    EXPECT_EQ(got.metrics.pairs_checked, want.pairs_checked);
    EXPECT_EQ(got.metrics.pairs_evaluated, want.pairs_evaluated);
    ASSERT_EQ(got.server_busy.size(), want.server_busy.size());
    for (std::size_t s = 0; s < want.server_busy.size(); ++s) {
      EXPECT_DOUBLE_EQ(got.server_busy[s], want.server_busy[s])
          << "server " << s;
    }
  }
}

TEST(Decomp, ToStringNamesAllMethods) {
  EXPECT_NE(to_string(Method::ReplicatedData).find("RD"), std::string::npos);
  EXPECT_NE(to_string(Method::SpaceDecomposition).find("SD"),
            std::string::npos);
  EXPECT_NE(to_string(Method::ForceDecomposition).find("FD"),
            std::string::npos);
}

}  // namespace

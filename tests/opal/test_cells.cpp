// Cell-list update path: the linked-cell grid and the equivalence guarantee
// that ServerDomain::update produces the *identical* active list (same
// pairs, same order) on every host path — the brute sweep of a listed
// domain, its private Verlet list, and a run's SharedPairList — across
// distribution strategies, server counts, post-failover domains, moving
// positions and degenerate geometries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "opal/cells.hpp"
#include "opal/complex.hpp"
#include "opal/forcefield.hpp"
#include "opal/pairs.hpp"
#include "opal/serial.hpp"
#include "util/rng.hpp"

namespace {

using namespace opalsim;

opal::MolecularComplex test_complex(std::size_t n_solute, std::size_t n_water,
                                    std::uint64_t seed) {
  opal::SyntheticSpec s;
  s.n_solute = n_solute;
  s.n_water = n_water;
  s.seed = seed;
  return opal::make_synthetic_complex(s);
}

std::vector<opal::PairIdx> snapshot(const opal::ServerDomain& dom) {
  return {dom.active().begin(), dom.active().end()};
}

/// A cutoff guaranteed to give the grid >= 4 cells per axis for these
/// positions (the synthetic boxes of small test complexes are only ~20 A
/// across, so fixed cutoffs can degenerate the grid).
double grid_friendly_cutoff(const std::vector<double>& x,
                            const std::vector<double>& y,
                            const std::vector<double>& z) {
  double span = std::numeric_limits<double>::max();
  for (const auto* c : {&x, &y, &z}) {
    const auto [lo, hi] = std::minmax_element(c->begin(), c->end());
    span = std::min(span, *hi - *lo);
  }
  return span / 4.0;
}

/// Runs both paths on the same domain and requires element-for-element
/// equality (order included — the FP accumulation order downstream depends
/// on it).
void expect_paths_identical(opal::ServerDomain& dom,
                            const opal::MolecularComplex& mc, double cutoff) {
  dom.update(mc, cutoff, opal::PairUpdatePath::Brute);
  const auto brute = snapshot(dom);
  dom.update(mc, cutoff, opal::PairUpdatePath::CellList);
  const auto cells = snapshot(dom);
  ASSERT_EQ(brute.size(), cells.size());
  for (std::size_t t = 0; t < brute.size(); ++t) {
    ASSERT_EQ(brute[t].i, cells[t].i) << "at position " << t;
    ASSERT_EQ(brute[t].j, cells[t].j) << "at position " << t;
  }
}

TEST(CellGrid, RejectsDegenerateGeometry) {
  opal::CellGrid grid;
  // Too few points.
  std::vector<double> one{0.0};
  EXPECT_FALSE(grid.build(one, one, one, 1.0));
  // Cutoff exceeding the bounding box: fewer than 8 cells (no splittable
  // axis), so the grid cannot prune anything.
  auto mc = test_complex(50, 100, 7);
  std::vector<double> x, y, z;
  for (const auto& c : mc.centers) {
    x.push_back(c.position.x);
    y.push_back(c.position.y);
    z.push_back(c.position.z);
  }
  EXPECT_FALSE(grid.build(x, y, z, 1e6));
  // Non-positive cutoff.
  EXPECT_FALSE(grid.build(x, y, z, 0.0));
  // Non-finite coordinate.
  auto bad = x;
  bad[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(grid.build(bad, y, z, 3.0));
}

TEST(CellGrid, CandidatesCoverAllPairsWithinCutoff) {
  const auto mc = test_complex(120, 240, 11);
  std::vector<double> x, y, z;
  for (const auto& c : mc.centers) {
    x.push_back(c.position.x);
    y.push_back(c.position.y);
    z.push_back(c.position.z);
  }
  const double cutoff = grid_friendly_cutoff(x, y, z);
  opal::CellGrid grid;
  ASSERT_TRUE(grid.build(x, y, z, cutoff));

  std::set<std::pair<std::uint32_t, std::uint32_t>> candidates;
  grid.for_each_candidate([&](std::uint32_t a, std::uint32_t b) {
    ASSERT_LT(a, b);
    const bool inserted = candidates.insert({a, b}).second;
    ASSERT_TRUE(inserted) << "pair (" << a << "," << b << ") emitted twice";
  });

  const double c2 = cutoff * cutoff;
  const auto n = static_cast<std::uint32_t>(mc.n());
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (opal::within_cutoff(mc, i, j, c2)) {
        EXPECT_TRUE(candidates.count({i, j}))
            << "in-cutoff pair (" << i << "," << j << ") not enumerated";
      }
    }
  }
}

TEST(CellGrid, NearAboveMatchesCandidatesWithinCutoff) {
  const auto mc = test_complex(100, 200, 3);
  std::vector<double> x, y, z;
  for (const auto& c : mc.centers) {
    x.push_back(c.position.x);
    y.push_back(c.position.y);
    z.push_back(c.position.z);
  }
  const double cutoff = grid_friendly_cutoff(x, y, z);
  const double c2 = cutoff * cutoff;
  opal::CellGrid grid;
  ASSERT_TRUE(grid.build(x, y, z, cutoff));

  std::set<std::pair<std::uint32_t, std::uint32_t>> expected;
  grid.for_each_candidate([&](std::uint32_t a, std::uint32_t b) {
    const double dx = x[a] - x[b], dy = y[a] - y[b], dz = z[a] - z[b];
    if (dx * dx + dy * dy + dz * dz <= c2) expected.insert({a, b});
  });

  std::set<std::pair<std::uint32_t, std::uint32_t>> got;
  const auto n = static_cast<std::uint32_t>(mc.n());
  for (std::uint32_t i = 0; i < n; ++i) {
    grid.for_each_near_above(i, x[i], y[i], z[i], c2, [&](std::uint32_t j) {
      ASSERT_GT(j, i);
      const bool inserted = got.insert({i, j}).second;
      ASSERT_TRUE(inserted);
    });
  }
  EXPECT_EQ(expected, got);
}

TEST(CellListEquivalence, AllStrategiesAllServerCounts) {
  const auto mc = test_complex(150, 300, 42);
  const auto n = static_cast<std::uint32_t>(mc.n());
  const opal::DistributionStrategy strategies[] = {
      opal::DistributionStrategy::PseudoRandomHistorical,
      opal::DistributionStrategy::PseudoRandomUniform,
      opal::DistributionStrategy::RowCyclic,
      opal::DistributionStrategy::Folded,
      opal::DistributionStrategy::EvenMultiplierBug,
  };
  for (const auto strategy : strategies) {
    for (int p : {1, 2, 5}) {
      auto domains = opal::build_domains(n, p, strategy, 1);
      for (int s = 0; s < p; ++s) {
        if (domains[s].empty()) continue;
        opal::ServerDomain dom(std::move(domains[s]));
        SCOPED_TRACE(opal::to_string(strategy) + ", p=" + std::to_string(p) +
                     ", server " + std::to_string(s));
        expect_paths_identical(dom, mc, 8.0);
      }
    }
  }
}

TEST(CellListEquivalence, AcrossSeedsAndCutoffs) {
  for (std::uint64_t seed : {1ull, 99ull, 7777ull}) {
    const auto mc = test_complex(130, 260, seed);
    auto domains =
        opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                            opal::DistributionStrategy::RowCyclic, seed);
    opal::ServerDomain dom(std::move(domains[0]));
    for (double cutoff : {4.0, 8.0, 15.0}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " cutoff=" + std::to_string(cutoff));
      expect_paths_identical(dom, mc, cutoff);
    }
  }
}

TEST(CellListEquivalence, PostAdoptFailoverDomain) {
  const auto mc = test_complex(140, 280, 5);
  const auto n = static_cast<std::uint32_t>(mc.n());
  auto domains = opal::build_domains(
      n, 3, opal::DistributionStrategy::PseudoRandomUniform, 2);
  // Server 0 adopts server 2's share (the failover path): its domain is now
  // two concatenated sorted runs, exercising the Permuted membership index.
  opal::ServerDomain dom(std::move(domains[0]));
  dom.update(mc, 8.0);
  dom.adopt(domains[2]);
  expect_paths_identical(dom, mc, 8.0);
  // A second adoption on top (two failovers).
  dom.adopt(domains[1]);
  expect_paths_identical(dom, mc, 8.0);
}

TEST(CellListEquivalence, MovingPositionsRevalidateVerletList) {
  // Exercise the Verlet displacement logic of the serial (LexComplete)
  // path: move centers between updates, both within and beyond skin/2, and
  // require exact equality with brute force after every move.
  auto mc = test_complex(120, 240, 8);
  const auto n = static_cast<std::uint32_t>(mc.n());
  auto domains = opal::build_domains(n, 1,
                                     opal::DistributionStrategy::RowCyclic, 1);
  opal::ServerDomain dom(std::move(domains[0]));
  util::Xoshiro256 rng(123);
  expect_paths_identical(dom, mc, 8.0);
  for (int round = 0; round < 6; ++round) {
    // Rounds alternate small jitter (list stays valid) and a large kick
    // (forces a rebuild).
    const double amp = round % 2 == 0 ? 0.05 : 3.0;
    for (auto& c : mc.centers) {
      c.position.x += rng.uniform(-amp, amp);
      c.position.y += rng.uniform(-amp, amp);
      c.position.z += rng.uniform(-amp, amp);
    }
    SCOPED_TRACE("round " + std::to_string(round));
    expect_paths_identical(dom, mc, 8.0);
  }
}

TEST(CellListEquivalence, EdgeCases) {
  // Cutoff larger than the bounding box: the grid degenerates, CellList
  // falls back to brute force, results still identical.
  {
    const auto mc = test_complex(100, 200, 13);
    auto domains =
        opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                            opal::DistributionStrategy::RowCyclic, 1);
    opal::ServerDomain dom(std::move(domains[0]));
    dom.update(mc, 1e6, opal::PairUpdatePath::CellList);
    EXPECT_FALSE(dom.last_update_used_cells());
    expect_paths_identical(dom, mc, 1e6);
  }
  // Tiny complex (n = 2): one pair, brute fallback.
  {
    const auto mc = test_complex(2, 0, 21);
    opal::ServerDomain dom(
        std::move(opal::build_domains(2, 1,
                                      opal::DistributionStrategy::RowCyclic,
                                      1)[0]));
    expect_paths_identical(dom, mc, 5.0);
  }
  // No cut-off: the list is not materialized on either path.
  {
    const auto mc = test_complex(50, 100, 34);
    opal::ServerDomain dom(
        std::move(opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                                      opal::DistributionStrategy::Folded,
                                      1)[0]));
    const auto checked = dom.update(mc, -1.0, opal::PairUpdatePath::CellList);
    EXPECT_EQ(checked, dom.domain_size());
    EXPECT_FALSE(dom.last_update_used_cells());
    EXPECT_EQ(dom.active().size(), dom.domain_size());
  }
}

TEST(CellListEquivalence, AllCentersInOneCell) {
  // Every center inside one cut-off sphere: the grid collapses to a single
  // cell, build() refuses, the forced path falls back — and the lists must
  // still match (everything is within the cut-off).
  auto mc = test_complex(40, 80, 17);
  for (auto& c : mc.centers) {
    c.position.x *= 0.05;
    c.position.y *= 0.05;
    c.position.z *= 0.05;
  }
  auto domains = opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                                     opal::DistributionStrategy::RowCyclic, 1);
  opal::ServerDomain dom(std::move(domains[0]));
  dom.update(mc, 8.0, opal::PairUpdatePath::CellList);
  EXPECT_FALSE(dom.last_update_used_cells());
  EXPECT_EQ(dom.active_size(), dom.domain_size());  // all pairs in range
  expect_paths_identical(dom, mc, 8.0);
}

TEST(CellListEquivalence, ZeroAndOneCenterDomains) {
  // Degenerate complexes: no pairs exist, both paths must produce an empty
  // (or unmaterialized-empty) active list without touching the grid.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}}) {
    opal::MolecularComplex mc;
    mc.name = "degenerate";
    for (std::size_t i = 0; i < n; ++i) {
      opal::MassCenter c;
      c.position = {static_cast<double>(i), 0.0, 0.0};
      c.mass = 12.0;
      mc.centers.push_back(c);
    }
    opal::ServerDomain dom;  // empty domain — no pairs to assign
    SCOPED_TRACE("n = " + std::to_string(n));
    for (auto path : {opal::PairUpdatePath::Brute,
                      opal::PairUpdatePath::CellList,
                      opal::PairUpdatePath::Auto}) {
      const auto checked = dom.update(mc, 5.0, path);
      EXPECT_EQ(checked, 0u);
      EXPECT_EQ(dom.active_size(), 0u);
      EXPECT_FALSE(dom.last_update_used_cells());
    }
  }
}

TEST(CellListEquivalence, ExactSkinBoundaryDisplacement) {
  // The Verlet list stays valid while every center is within skin/2 of its
  // reference; the rebuild trigger is strictly "moved MORE than skin/2".
  // Park one center exactly at the boundary, then a hair past it — the
  // active list must equal brute force on both sides of the trigger.
  auto mc = test_complex(110, 220, 23);
  const double cutoff = 8.0;
  const double half_skin = 0.5 * 0.3 * cutoff;  // kVerletSkinFactor = 0.3
  auto domains = opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                                     opal::DistributionStrategy::RowCyclic, 1);
  opal::ServerDomain dom(std::move(domains[0]));
  expect_paths_identical(dom, mc, cutoff);  // builds the reference list

  mc.centers[5].position.x += half_skin;  // exactly at the boundary
  expect_paths_identical(dom, mc, cutoff);

  mc.centers[5].position.x += 1e-9;  // past it: rebuild must fire
  expect_paths_identical(dom, mc, cutoff);

  // A displacement spanning several skins (a center leaves its old cell
  // neighborhood entirely).
  mc.centers[7].position.y += 4.0 * half_skin;
  expect_paths_identical(dom, mc, cutoff);
}

TEST(CellListEquivalence, CrossoverOverrideKnobSteersAutoPath) {
  // OPALSIM_CELL_CROSSOVER's in-process mirror: a huge crossover forces
  // Auto to brute force; a tiny one re-enables the cell list where the
  // grid fits.  Results are identical either way — the knob trades host
  // time only.
  const auto mc = test_complex(400, 800, 31);
  const auto n = static_cast<std::uint32_t>(mc.n());
  // A cut-off small enough that even the skin-padded grid has >= 2 cells
  // per axis on the synthetic box.
  std::vector<double> x, y, z;
  for (const auto& c : mc.centers) {
    x.push_back(c.position.x);
    y.push_back(c.position.y);
    z.push_back(c.position.z);
  }
  const double cutoff = grid_friendly_cutoff(x, y, z) / 1.3;

  auto domains = opal::build_domains(n, 1,
                                     opal::DistributionStrategy::RowCyclic, 1);
  opal::ServerDomain dom(std::move(domains[0]));

  opal::set_cell_crossover_centers(n + 1);  // out of reach: Auto -> brute
  dom.update(mc, cutoff, opal::PairUpdatePath::Auto);
  EXPECT_FALSE(dom.last_update_used_cells());
  const auto brute = snapshot(dom);

  opal::set_cell_crossover_centers(2);  // everything crosses: Auto -> cells
  dom.update(mc, cutoff, opal::PairUpdatePath::Auto);
  EXPECT_TRUE(dom.last_update_used_cells());
  const auto cells = snapshot(dom);
  ASSERT_EQ(brute.size(), cells.size());
  EXPECT_TRUE(std::equal(brute.begin(), brute.end(), cells.begin()));

  opal::set_cell_crossover_centers(0);  // restore env/default resolution
  EXPECT_GT(opal::cell_crossover_centers(), 0u);
}

TEST(CellListEquivalence, UpdateStatsCountPathsTaken) {
  const auto mc = test_complex(150, 300, 41);
  // Small enough that the skin-padded grid has >= 3 cells per axis on the
  // synthetic box (the forced cell path must actually engage).
  const double cutoff = 5.0;
  auto domains = opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                                     opal::DistributionStrategy::RowCyclic, 1);
  opal::ServerDomain dom(std::move(domains[0]));
  EXPECT_EQ(dom.stats().updates, 0u);

  dom.update(mc, cutoff, opal::PairUpdatePath::Brute);
  EXPECT_EQ(dom.stats().updates, 1u);
  EXPECT_EQ(dom.stats().cell_updates, 0u);

  dom.update(mc, cutoff, opal::PairUpdatePath::CellList);
  EXPECT_EQ(dom.stats().updates, 2u);
  EXPECT_EQ(dom.stats().cell_updates, 1u);
  EXPECT_GE(dom.stats().verlet_rebuilds, 1u);

  // No cut-off: not a list update, not counted.
  dom.update(mc, -1.0, opal::PairUpdatePath::Brute);
  EXPECT_EQ(dom.stats().updates, 2u);

  // restore() resets the counters (resumed runs cannot reproduce them).
  dom.restore({}, {}, false);
  EXPECT_EQ(dom.stats().updates, 0u);
  EXPECT_EQ(dom.stats().cell_updates, 0u);
  EXPECT_EQ(dom.stats().verlet_rebuilds, 0u);
}

TEST(CellListEquivalence, VirtualTimeAccountingUnchanged) {
  // update() must report domain_size() pairs checked on every path — the
  // paper's O(n^2/p) model charge does not depend on the host algorithm.
  const auto mc = test_complex(120, 240, 55);
  auto domains = opal::build_domains(static_cast<std::uint32_t>(mc.n()), 2,
                                     opal::DistributionStrategy::Folded, 3);
  opal::ServerDomain dom(std::move(domains[0]));
  const auto brute_charge = dom.update(mc, 8.0, opal::PairUpdatePath::Brute);
  const auto cells_charge =
      dom.update(mc, 8.0, opal::PairUpdatePath::CellList);
  EXPECT_EQ(brute_charge, dom.domain_size());
  EXPECT_EQ(cells_charge, dom.domain_size());
}

TEST(CellListEquivalence, SerialEngineBitIdenticalAcrossPaths) {
  // End-to-end: a short integrated run must produce bit-identical energies
  // regardless of the host update path (positions feed back into future
  // active lists, so any divergence would compound).
  opal::SimResult results[2];
  int idx = 0;
  for (auto path :
       {opal::PairUpdatePath::Brute, opal::PairUpdatePath::CellList}) {
    opal::SimulationConfig cfg;
    cfg.steps = 10;
    cfg.cutoff = 8.0;
    cfg.integrate = true;
    cfg.pair_path = path;
    opal::SerialOpal engine(test_complex(120, 240, 99), cfg);
    results[idx++] = engine.run();
  }
  EXPECT_EQ(results[0].evdw, results[1].evdw);
  EXPECT_EQ(results[0].ecoul, results[1].ecoul);
  EXPECT_EQ(results[0].kinetic, results[1].kinetic);
  EXPECT_EQ(results[0].total_energy(), results[1].total_energy());
}

// -- SharedPairList: one run-wide Verlet list split by owner ----------------

/// p servers of one run on the shared list, side by side with the same
/// servers on listed domains swept by brute force (the reference).
struct SharedAndBrute {
  SharedAndBrute(std::uint32_t n, int p, opal::DistributionStrategy strategy,
                 std::uint64_t seed)
      : list(n, p, strategy, seed),
        assignment(opal::build_domains(n, p, strategy, seed)) {
    const auto owned = opal::count_domains(n, p, strategy, seed);
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(owned[s], assignment[s].size());
      shared.emplace_back(list, s, owned[s]);
      brute.emplace_back(assignment[s]);
    }
  }

  /// Kills server `dead` the way ParallelOpal's client heals: its listed
  /// pairs (own plus adopted) are dealt round-robin over the survivors.
  void fail_over(int dead) {
    std::vector<int> survivors;
    for (int s = 0; s < static_cast<int>(shared.size()); ++s) {
      if (s != dead && alive(s)) survivors.push_back(s);
    }
    std::vector<std::vector<opal::PairIdx>> extra(shared.size());
    for (std::size_t k = 0; k < assignment[dead].size(); ++k) {
      extra[survivors[k % survivors.size()]].push_back(assignment[dead][k]);
    }
    assignment[dead].clear();
    dead_.push_back(dead);
    for (const int s : survivors) {
      shared[s].adopt(extra[s]);
      brute[s].adopt(extra[s]);
      assignment[s].insert(assignment[s].end(), extra[s].begin(),
                           extra[s].end());
    }
  }

  bool alive(int s) const {
    return std::find(dead_.begin(), dead_.end(), s) == dead_.end();
  }

  /// Updates every live server on both paths and requires the same pairs
  /// in the same order and the same update() charge.
  void expect_identical(const opal::MolecularComplex& mc, double cutoff) {
    for (int s = 0; s < static_cast<int>(shared.size()); ++s) {
      if (!alive(s)) continue;
      SCOPED_TRACE("server " + std::to_string(s));
      const auto charge_brute =
          brute[s].update(mc, cutoff, opal::PairUpdatePath::Brute);
      const auto charge_shared = shared[s].update(mc, cutoff);
      EXPECT_EQ(charge_brute, charge_shared);
      EXPECT_EQ(shared[s].domain_size(), brute[s].domain_size());
      const auto want = snapshot(brute[s]);
      const auto got = snapshot(shared[s]);
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t t = 0; t < want.size(); ++t) {
        ASSERT_EQ(want[t].i, got[t].i) << "at position " << t;
        ASSERT_EQ(want[t].j, got[t].j) << "at position " << t;
      }
    }
  }

  opal::SharedPairList list;
  std::vector<std::vector<opal::PairIdx>> assignment;
  std::vector<opal::ServerDomain> shared, brute;

 private:
  std::vector<int> dead_;
};

constexpr opal::DistributionStrategy kAllStrategies[] = {
    opal::DistributionStrategy::PseudoRandomHistorical,
    opal::DistributionStrategy::PseudoRandomUniform,
    opal::DistributionStrategy::RowCyclic,
    opal::DistributionStrategy::Folded,
    opal::DistributionStrategy::EvenMultiplierBug,
};

TEST(CellListEquivalence, SharedListAllStrategiesAllServerCounts) {
  const auto mc = test_complex(150, 300, 42);
  const auto n = static_cast<std::uint32_t>(mc.n());
  for (const auto strategy : kAllStrategies) {
    for (int p : {1, 2, 3, 7}) {
      SCOPED_TRACE(opal::to_string(strategy) + ", p=" + std::to_string(p));
      SharedAndBrute run(n, p, strategy, 3);
      run.expect_identical(mc, 8.0);
    }
  }
}

TEST(CellListEquivalence, SharedListFollowsMovingPositionsAcrossRebuilds) {
  // Small jitter keeps the list, a large kick forces a rebuild and a new
  // split; every round must still equal the brute lists.
  auto mc = test_complex(120, 240, 8);
  const auto n = static_cast<std::uint32_t>(mc.n());
  for (int p : {1, 3, 7}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    SharedAndBrute run(n, p, opal::DistributionStrategy::PseudoRandomHistorical,
                       5);
    util::Xoshiro256 rng(77 + static_cast<std::uint64_t>(p));
    run.expect_identical(mc, 8.0);
    EXPECT_EQ(run.list.rebuilds(), 1u);
    for (int round = 0; round < 6; ++round) {
      const double amp = round % 2 == 0 ? 0.05 : 3.0;
      for (auto& c : mc.centers) {
        c.position.x += rng.uniform(-amp, amp);
        c.position.y += rng.uniform(-amp, amp);
        c.position.z += rng.uniform(-amp, amp);
      }
      SCOPED_TRACE("round " + std::to_string(round));
      run.expect_identical(mc, 8.0);
    }
    // One rebuild per kick, none for the jitter.
    EXPECT_EQ(run.list.rebuilds(), 4u);
  }
}

TEST(CellListEquivalence, SharedListAfterTwoFailovers) {
  // Two failover epochs: the second redistributes a server that already
  // holds an adopted tail.  Own pairs stay on the shared list, adopted
  // ones are swept, and the order is still own-then-adopted.
  auto mc = test_complex(140, 280, 5);
  const auto n = static_cast<std::uint32_t>(mc.n());
  for (const auto strategy : kAllStrategies) {
    SCOPED_TRACE(opal::to_string(strategy));
    SharedAndBrute run(n, 5, strategy, 2);
    run.expect_identical(mc, 8.0);
    run.fail_over(2);
    run.expect_identical(mc, 8.0);
    run.fail_over(0);
    for (auto& c : mc.centers) c.position.x += 0.5;  // moves, list kept
    run.expect_identical(mc, 8.0);
    for (auto& c : mc.centers) c.position.x -= 0.5;
  }
}

TEST(CellListEquivalence, SharedListCutoffLargerThanBox) {
  // The padded grid degenerates: the list falls back to a sweep of the
  // whole triangle (every pair is a candidate) and stays exact.
  const auto mc = test_complex(100, 200, 13);
  const auto n = static_cast<std::uint32_t>(mc.n());
  for (int p : {1, 2, 3, 7}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    SharedAndBrute run(n, p, opal::DistributionStrategy::Folded, 1);
    run.expect_identical(mc, 1e6);
    EXPECT_FALSE(run.list.list().grid_built());
    EXPECT_EQ(run.list.list().pairs().size(),
              static_cast<std::size_t>(n) * (n - 1) / 2);
    EXPECT_FALSE(run.shared[0].last_update_used_cells());
  }
}

TEST(CellListEquivalence, SharedListBelowCrossover) {
  // middleware_ft's 36-centre shape: runs keep listed domains below the
  // crossover unless CellList forces the shared list, which must then give
  // the same lists.
  const auto tiny = test_complex(12, 24, 4);
  ASSERT_LT(tiny.n(), opal::cell_crossover_centers());
  EXPECT_FALSE(
      opal::shared_list_enabled(10.0, opal::PairUpdatePath::Auto, tiny.n()));
  EXPECT_TRUE(opal::shared_list_enabled(10.0, opal::PairUpdatePath::CellList,
                                        tiny.n()));
  EXPECT_FALSE(opal::shared_list_enabled(
      10.0, opal::PairUpdatePath::Brute, opal::cell_crossover_centers()));
  EXPECT_FALSE(opal::shared_list_enabled(-1.0, opal::PairUpdatePath::Auto,
                                         opal::cell_crossover_centers()));
  EXPECT_TRUE(opal::shared_list_enabled(10.0, opal::PairUpdatePath::Auto,
                                        opal::cell_crossover_centers()));
  for (int p : {1, 2, 3, 7}) {
    SCOPED_TRACE("tiny, p=" + std::to_string(p));
    SharedAndBrute run(static_cast<std::uint32_t>(tiny.n()), p,
                       opal::DistributionStrategy::PseudoRandomHistorical, 1);
    run.expect_identical(tiny, 10.0);
  }

  // The sweep that builds a list the grid cannot enumerates exactly the
  // grid's list where both work.
  const auto mc = test_complex(60, 120, 9);
  std::vector<double> x, y, z;
  for (const auto& c : mc.centers) {
    x.push_back(c.position.x);
    y.push_back(c.position.y);
    z.push_back(c.position.z);
  }
  const double cutoff = grid_friendly_cutoff(x, y, z) / 1.3;
  opal::VerletList grid, sweep;
  EXPECT_FALSE(grid.load(mc, cutoff));
  ASSERT_TRUE(grid.build_grid(cutoff));
  EXPECT_TRUE(grid.grid_built());
  EXPECT_FALSE(sweep.load(mc, cutoff));
  sweep.build_sweep(cutoff);
  EXPECT_FALSE(sweep.grid_built());
  EXPECT_TRUE(sweep.load(mc, cutoff));
  ASSERT_FALSE(grid.pairs().empty());
  EXPECT_TRUE(std::equal(grid.pairs().begin(), grid.pairs().end(),
                         sweep.pairs().begin(), sweep.pairs().end()));
}

TEST(CellListEquivalence, SharedListDomainNeedsCutoff) {
  const auto mc = test_complex(20, 40, 2);
  opal::SharedPairList list(static_cast<std::uint32_t>(mc.n()), 2,
                            opal::DistributionStrategy::RowCyclic, 1);
  opal::ServerDomain dom(list, 0, 10);
  EXPECT_THROW(dom.update(mc, -1.0), std::logic_error);
}

}  // namespace

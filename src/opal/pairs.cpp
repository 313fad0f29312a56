#include "opal/pairs.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "opal/forcefield.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace opalsim::opal {

namespace {

bool lex_less(const PairIdx& a, const PairIdx& b) noexcept {
  return a.i < b.i || (a.i == b.i && a.j < b.j);
}

/// OPALSIM_CELL_LIST=0 (or false/off/no) keeps every host update on the
/// brute-force sweep — the escape hatch documented in README.  Read once.
bool cell_list_enabled() {
  static const bool enabled = [] {
    const auto s = util::env_string("OPALSIM_CELL_LIST");
    if (!s) return true;
    std::string v = *s;
    std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    return !(v == "0" || v == "false" || v == "off" || v == "no");
  }();
  return enabled;
}

/// Below this many assigned pairs the brute sweep is already cheap and any
/// grid bookkeeping would dominate.
constexpr std::size_t kMinPairsForCells = 1024;

/// Default crossover in centers.  The bench_host_speed crossover sweep
/// (synthetic complex, production cut-off 10 A) measures, for the full
/// triangle, brute/Verlet parity up to the size where the skin-padded grid
/// first fits the box (~1.1k centers at that density) and a >10x Verlet win
/// from there up; for a p = 7 update round, the shared list at parity with
/// the listed brute sweeps at 128 centers and >5x faster from 256 up.  At
/// 64 centers nearly every pair is a candidate and the shared list loses
/// ~25%: loading positions per server is pure overhead there.  See
/// DESIGN.md.
constexpr std::uint32_t kDefaultCellCrossover = 256;

std::atomic<std::uint32_t> g_cell_crossover{0};  // 0 = not yet resolved

/// Verlet-list skin as a fraction of the cut-off.  Larger skins pad the
/// candidate list (more distance checks per update) but survive more
/// motion before a rebuild; 0.3 balances the two for the step sizes the
/// integrator takes.
constexpr double kVerletSkinFactor = 0.3;

/// The single definition of pair ownership, inlined into the per-strategy
/// functors below; pair_owner() is its out-of-line form.
inline int owner_of(DistributionStrategy strategy, std::uint64_t k,
                    std::uint32_t i, std::uint32_t n, int p,
                    std::uint64_t seed) noexcept {
  const auto up = static_cast<std::uint64_t>(p);
  switch (strategy) {
    case DistributionStrategy::PseudoRandomHistorical: {
      const std::uint64_t h = util::splitmix64_hash(k ^ seed);
      auto server = static_cast<int>(h % up);
      // Parity correlation of the historical generator: when p is even,
      // one in eight pairs headed for an odd-ranked server lands on its
      // even-ranked neighbour instead (~12% systematic imbalance).
      if (p % 2 == 0 && ((h >> 32) & 7u) == 0) server &= ~1;
      return server;
    }
    case DistributionStrategy::PseudoRandomUniform:
      return static_cast<int>(util::splitmix64_hash(k ^ seed) % up);
    case DistributionStrategy::RowCyclic:
      return static_cast<int>(i % up);
    case DistributionStrategy::Folded: {
      const std::uint32_t row = i <= n - 2 - i ? i : n - 2 - i;
      return static_cast<int>(row % up);
    }
    case DistributionStrategy::EvenMultiplierBug:
      // gcd(multiplier, p) = 2 for even p: odd-ranked servers get nothing.
      return static_cast<int>((k * 2654435762ull) % up);
  }
  return 0;
}

/// owner_of with the strategy fixed at compile time, so the switch folds
/// away inside the per-pair loops.
template <DistributionStrategy S>
struct OwnerOf {
  std::uint32_t n;
  int p;
  std::uint64_t seed;
  int operator()(std::uint64_t k, std::uint32_t i) const noexcept {
    return owner_of(S, k, i, n, p, seed);
  }
};

/// Calls fn(OwnerOf<strategy>{...}): the strategy is resolved once per
/// call, not once per pair.
template <typename Fn>
void with_owner(DistributionStrategy strategy, std::uint32_t n, int p,
                std::uint64_t seed, Fn&& fn) {
  switch (strategy) {
    case DistributionStrategy::PseudoRandomHistorical:
      return fn(OwnerOf<DistributionStrategy::PseudoRandomHistorical>{
          n, p, seed});
    case DistributionStrategy::PseudoRandomUniform:
      return fn(
          OwnerOf<DistributionStrategy::PseudoRandomUniform>{n, p, seed});
    case DistributionStrategy::RowCyclic:
      return fn(OwnerOf<DistributionStrategy::RowCyclic>{n, p, seed});
    case DistributionStrategy::Folded:
      return fn(OwnerOf<DistributionStrategy::Folded>{n, p, seed});
    case DistributionStrategy::EvenMultiplierBug:
      return fn(OwnerOf<DistributionStrategy::EvenMultiplierBug>{n, p, seed});
  }
}

void require_domain_args(std::uint32_t n, int p, const char* who) {
  if (p <= 0) throw std::invalid_argument(std::string(who) + ": p must be > 0");
  if (n < 2) {
    throw std::invalid_argument(std::string(who) + ": need >= 2 centers");
  }
  require_pair_indexable(n, who);
}

}  // namespace

std::uint32_t cell_crossover_centers() {
  std::uint32_t v = g_cell_crossover.load(std::memory_order_relaxed);
  if (v == 0) {
    v = kDefaultCellCrossover;
    const long e = util::env_long("OPALSIM_CELL_CROSSOVER", 0);
    if (e > 0) v = static_cast<std::uint32_t>(e);
    g_cell_crossover.store(v, std::memory_order_relaxed);
  }
  return v;
}

void set_cell_crossover_centers(std::uint32_t n) {
  g_cell_crossover.store(n, std::memory_order_relaxed);
}

std::string to_string(DistributionStrategy s) {
  switch (s) {
    case DistributionStrategy::PseudoRandomHistorical:
      return "pseudo-random (historical)";
    case DistributionStrategy::PseudoRandomUniform:
      return "pseudo-random (uniform)";
    case DistributionStrategy::RowCyclic:
      return "row-cyclic";
    case DistributionStrategy::Folded:
      return "folded rows";
    case DistributionStrategy::EvenMultiplierBug:
      return "even-multiplier bug";
  }
  return "?";
}

int pair_owner(DistributionStrategy strategy, std::uint64_t k,
               std::uint32_t i, std::uint32_t j, std::uint32_t n, int p,
               std::uint64_t seed) {
  (void)j;
  return owner_of(strategy, k, i, n, p, seed);
}

void require_pair_indexable(std::size_t n, const char* who) {
  if (n > kMaxCenters) {
    throw std::invalid_argument(
        std::string(who) + ": " + std::to_string(n) +
        " centres exceed the pair-index limit of " +
        std::to_string(kMaxCenters));
  }
}

bool shared_list_enabled(double cutoff, PairUpdatePath path, std::size_t n) {
  if (cutoff <= 0.0 || !cell_list_enabled()) return false;
  switch (path) {
    case PairUpdatePath::Brute:
      return false;
    case PairUpdatePath::CellList:
      return true;
    case PairUpdatePath::Auto:
      break;
  }
  return n >= cell_crossover_centers();
}

std::vector<std::uint64_t> count_domains(std::uint32_t n, int p,
                                         DistributionStrategy strategy,
                                         std::uint64_t seed) {
  require_domain_args(n, p, "count_domains");
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  // Every strategy gives every pair to server 0 when there is only one.
  if (p == 1) return {total};
  std::vector<std::uint64_t> counts(p, 0);
  with_owner(strategy, n, p, seed, [&](auto owner) {
    std::uint64_t k = 0;
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j, ++k) ++counts[owner(k, i)];
    }
  });
  return counts;
}

std::vector<std::vector<PairIdx>> build_domains(std::uint32_t n, int p,
                                                DistributionStrategy strategy,
                                                std::uint64_t seed) {
  require_domain_args(n, p, "build_domains");
  // Count pass, then fill pass: exact per-server reservations without
  // keeping anything per pair in between (owners are recomputed).
  const std::vector<std::uint64_t> counts = count_domains(n, p, strategy, seed);
  std::vector<std::vector<PairIdx>> domains(p);
  for (int s = 0; s < p; ++s) domains[s].reserve(counts[s]);
  with_owner(strategy, n, p, seed, [&](auto owner) {
    std::uint64_t k = 0;
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j, ++k) {
        domains[owner(k, i)].push_back(make_pair_idx(i, j));
      }
    }
  });
  return domains;
}

// -- VerletList ---------------------------------------------------------------

bool VerletList::load(const MolecularComplex& mc, double cutoff) {
  const std::size_t n = mc.n();
  x_.resize(n);
  y_.resize(n);
  z_.resize(n);
  bool valid = ready_ && cutoff_ == cutoff && rx_.size() == n;
  const double half_skin = 0.5 * (kVerletSkinFactor * cutoff);
  const double half_skin2 = half_skin * half_skin;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3& r = mc.centers[i].position;
    x_[i] = r.x;
    y_[i] = r.y;
    z_[i] = r.z;
    if (valid) {
      const double dx = r.x - rx_[i];
      const double dy = r.y - ry_[i];
      const double dz = r.z - rz_[i];
      valid = !(dx * dx + dy * dy + dz * dz > half_skin2);
    }
  }
  ready_ = valid;
  return valid;
}

bool VerletList::build_grid(double cutoff) {
  const double padded = cutoff + kVerletSkinFactor * cutoff;
  if (!grid_.build(x_, y_, z_, padded)) return false;
  const auto n = static_cast<std::uint32_t>(x_.size());
  const double padded2 = padded * padded;
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  marks_.assign(words, 0);
  pairs_.clear();
  // Per-row bitset over j (a few hundred bytes, L1-resident): the sweep
  // both orders the row ascending and clears the bits it consumes.
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    grid_.for_each_near_above(
        i, x_[i], y_[i], z_[i], padded2,
        [&](std::uint32_t j) { marks_[j >> 6] |= 1ull << (j & 63); });
    for (std::size_t w = static_cast<std::size_t>(i + 1) >> 6; w < words;
         ++w) {
      std::uint64_t word = marks_[w];
      if (word == 0) continue;
      marks_[w] = 0;
      do {
        const auto bit = static_cast<std::uint32_t>(std::countr_zero(word));
        word &= word - 1;
        pairs_.push_back(
            make_pair_idx(i, static_cast<std::uint32_t>(w << 6) + bit));
      } while (word != 0);
    }
  }
  commit(cutoff, true);
  return true;
}

void VerletList::build_sweep(double cutoff) {
  const double padded = cutoff + kVerletSkinFactor * cutoff;
  const double padded2 = padded * padded;
  const auto n = static_cast<std::uint32_t>(x_.size());
  pairs_.clear();
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      const double dx = x_[i] - x_[j];
      const double dy = y_[i] - y_[j];
      const double dz = z_[i] - z_[j];
      if (dx * dx + dy * dy + dz * dz <= padded2) {
        pairs_.push_back(make_pair_idx(i, j));
      }
    }
  }
  commit(cutoff, false);
}

void VerletList::commit(double cutoff, bool grid) {
  rx_ = x_;
  ry_ = y_;
  rz_ = z_;
  cutoff_ = cutoff;
  grid_built_ = grid;
  ready_ = true;
}

void VerletList::filter(std::span<const PairIdx> candidates, double c2,
                        std::vector<PairIdx>& out) const {
  // Branchless write (store every candidate, advance only on accept): at
  // the ~40% accept rate of the padded list a conditional push mispredicts
  // constantly.
  const std::size_t base = out.size();
  out.resize(base + candidates.size());
  PairIdx* o = out.data() + base;
  std::size_t cnt = 0;
  for (const PairIdx& pr : candidates) {
    const double dx = x_[pr.i] - x_[pr.j];
    const double dy = y_[pr.i] - y_[pr.j];
    const double dz = z_[pr.i] - z_[pr.j];
    o[cnt] = pr;
    cnt += dx * dx + dy * dy + dz * dz <= c2 ? 1 : 0;
  }
  out.resize(base + cnt);
}

// -- SharedPairList -----------------------------------------------------------

SharedPairList::SharedPairList(std::uint32_t n, int p,
                               DistributionStrategy strategy,
                               std::uint64_t seed)
    : n_(n), p_(p), strategy_(strategy), seed_(seed) {
  if (p <= 0) throw std::invalid_argument("SharedPairList: p must be > 0");
  require_pair_indexable(n, "SharedPairList");
  if (p > 1) split_.resize(static_cast<std::size_t>(p));
}

bool SharedPairList::refresh(const MolecularComplex& mc, double cutoff) {
  if (mc.n() != n_) {
    throw std::logic_error("SharedPairList: complex size changed");
  }
  if (list_.load(mc, cutoff)) return false;
  if (!list_.build_grid(cutoff)) list_.build_sweep(cutoff);
  ++rebuilds_;
  if (split_.empty()) return true;
  for (std::vector<PairIdx>& s : split_) s.clear();
  with_owner(strategy_, n_, p_, seed_, [&](auto owner) {
    for (const PairIdx& pr : list_.pairs()) {
      split_[owner(pair_rank(pr.i, pr.j, n_), pr.i)].push_back(pr);
    }
  });
  return true;
}

// -- ServerDomain -------------------------------------------------------------

std::uint64_t ServerDomain::update(const MolecularComplex& mc, double cutoff,
                                   PairUpdatePath path) {
  used_cells_ = false;
  if (cutoff <= 0.0) {
    if (shared_ != nullptr) {
      throw std::logic_error("ServerDomain: a shared-list domain needs a "
                             "cut-off");
    }
    // active() stays the whole domain: a new version only when it was not.
    if (materialized_) ++generation_;
    materialized_ = false;
    active_.clear();
    active_.shrink_to_fit();
    return domain_.size();
  }
  materialized_ = true;
  ++generation_;
  ++stats_.updates;
  const double c2 = cutoff * cutoff;
  if (shared_ != nullptr) {
    // Own pairs from the shared list (lex order), then the adopted tail:
    // the order a brute sweep of own-then-adopted pairs emits.
    const bool rebuilt = shared_->refresh(mc, cutoff);
    active_.clear();
    shared_->list().filter(shared_->candidates(server_), c2, active_);
    sweep_listed(mc, c2);
    // A one-server list is this domain's whole Verlet list: count it as a
    // listed full triangle's own list would be.
    if (shared_->servers() == 1 && shared_->list().grid_built()) {
      used_cells_ = true;
      ++stats_.cell_updates;
      if (rebuilt) ++stats_.verlet_rebuilds;
    }
    return domain_size();
  }
  bool try_cells = false;
  switch (path) {
    case PairUpdatePath::Brute:
      break;
    case PairUpdatePath::CellList:
      try_cells = true;
      break;
    case PairUpdatePath::Auto:
      try_cells = cell_list_enabled() &&
                  domain_.size() >= kMinPairsForCells &&
                  cells_profitable(mc, cutoff);
      break;
  }
  if (try_cells && update_cells(mc, c2, cutoff)) {
    ++stats_.cell_updates;
  } else {
    active_.clear();
    sweep_listed(mc, c2);
  }
  return domain_size();
}

bool ServerDomain::is_full_triangle(std::uint32_t n) {
  if (triangle_known_ && triangle_n_ == n) return full_triangle_;
  const std::uint64_t total =
      n < 2 ? 0 : static_cast<std::uint64_t>(n) * (n - 1) / 2;
  // Strictly increasing distinct pairs, as many as exist: the whole
  // triangle in lex order (the serial engine's domain).
  full_triangle_ = domain_.size() == total && total > 0;
  for (std::size_t t = 1; full_triangle_ && t < domain_.size(); ++t) {
    full_triangle_ = lex_less(domain_[t - 1], domain_[t]);
  }
  triangle_n_ = n;
  triangle_known_ = true;
  return full_triangle_;
}

bool ServerDomain::cells_profitable(const MolecularComplex& mc,
                                    double cutoff) {
  const auto n = static_cast<std::uint32_t>(mc.n());
  if (n < cell_crossover_centers() || !is_full_triangle(n)) return false;
  // Estimate the grid the skin-padded build would produce from the
  // bounding box (O(n), negligible next to the O(n^2) sweep being decided
  // on), so that no update pays a doomed build attempt.  The estimate
  // mirrors CellGrid::build: floor(span/edge) cells per axis, product
  // capped near 8n (past that the grid is sparse and build() shrinks it).
  const double edge = cutoff * (1.0 + kVerletSkinFactor);
  double lo[3], hi[3];
  const Vec3& r0 = mc.centers[0].position;
  lo[0] = hi[0] = r0.x;
  lo[1] = hi[1] = r0.y;
  lo[2] = hi[2] = r0.z;
  for (std::uint32_t i = 1; i < n; ++i) {
    const Vec3& r = mc.centers[i].position;
    lo[0] = std::min(lo[0], r.x);
    hi[0] = std::max(hi[0], r.x);
    lo[1] = std::min(lo[1], r.y);
    hi[1] = std::max(hi[1], r.y);
    lo[2] = std::min(lo[2], r.z);
    hi[2] = std::max(hi[2], r.z);
  }
  double ncells = 1.0;
  for (int a = 0; a < 3; ++a) {
    const double span = hi[a] - lo[a];
    if (!std::isfinite(span)) return false;
    const double d = std::floor(span / edge);
    ncells *= d < 1.0 ? 1.0 : d;
  }
  ncells = std::min(ncells, 8.0 * n + 64.0);
  // The Verlet steady state re-filters only the padded list per update,
  // which wins from the crossover size up whenever the grid splits at all.
  return ncells >= 8.0;
}

void ServerDomain::sweep_listed(const MolecularComplex& mc, double c2) {
  for (const PairIdx& pr : domain_) {
    if (within_cutoff(mc, pr.i, pr.j, c2)) active_.push_back(pr);
  }
}

bool ServerDomain::update_cells(const MolecularComplex& mc, double c2,
                                double cutoff) {
  // Only the whole triangle in lex order is "all cut-off pairs in lex
  // order", which is what filtering the whole Verlet list yields.
  if (!is_full_triangle(static_cast<std::uint32_t>(mc.n()))) return false;
  if (!verlet_.load(mc, cutoff)) {
    if (!verlet_.build_grid(cutoff)) return false;
    ++stats_.verlet_rebuilds;
  }
  active_.clear();
  verlet_.filter(verlet_.pairs(), c2, active_);
  used_cells_ = true;
  return true;
}

}  // namespace opalsim::opal

#include "opal/pairs.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "opal/forcefield.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace opalsim::opal {

namespace {

/// Lexicographic rank of pair (i,j) in the full triangle over n centers.
std::uint64_t pair_rank(std::uint32_t i, std::uint32_t j,
                        std::uint32_t n) noexcept {
  // Row i starts after sum_{r<i} (n-1-r) = i*(2n-i-1)/2 pairs (the product
  // is always even: i or 2n-i-1 is).
  return static_cast<std::uint64_t>(i) * (2ull * n - i - 1) / 2 +
         (j - i - 1);
}

bool lex_less(const PairIdx& a, const PairIdx& b) noexcept {
  return a.i < b.i || (a.i == b.i && a.j < b.j);
}

/// OPALSIM_CELL_LIST=0 (or false/off/no) forces the brute-force update path
/// everywhere — the escape hatch documented in README.  Read once.
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

/// Default Auto-path crossover in centers.  The bench_host_speed crossover
/// sweep (synthetic complex, production cut-off 10 A) measures brute/cells
/// parity up to the size where the skin-padded grid first fits the box
/// (~1.1k centers at that density) and a >10x cells win from there up — so
/// the binding constraint at realistic sizes is the grid estimate below,
/// and this floor only guards the small-n regime where grid bookkeeping
/// costs more than the whole O(n^2) sweep.  See DESIGN.md.
constexpr std::uint32_t kDefaultCellCrossover = 256;

/// Cost of one neighbor-candidate visit on the domain-subset path relative
/// to one brute-force distance check: the candidate pays the same distance
/// test plus a membership lookup (binary search) and bitset mark, and the
/// per-update grid build is amortized over the candidates.  Measured ~2x
/// on the bench complex.
constexpr double kSubsetCandidateCost = 2.0;

std::atomic<std::uint32_t> g_cell_crossover{0};  // 0 = not yet resolved

/// Verlet-list skin as a fraction of the cut-off.  Larger skins pad the
/// candidate list (more distance checks per update) but survive more
/// motion before a grid rebuild; 0.3 balances the two for the step sizes
/// the integrator takes.
constexpr double kVerletSkinFactor = 0.3;

constexpr std::size_t kNoPosition = static_cast<std::size_t>(-1);

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

void require_pair_indexable(std::size_t n, const char* who) {
  if (n > kMaxCenters) {
    throw std::invalid_argument(
        std::string(who) + ": " + std::to_string(n) +
        " centres exceed the pair-index limit of " +
        std::to_string(kMaxCenters));
  }
}

std::vector<std::vector<PairIdx>> build_domains(std::uint32_t n, int p,
                                                DistributionStrategy strategy,
                                                std::uint64_t seed) {
  if (p <= 0) throw std::invalid_argument("build_domains: p must be > 0");
  if (n < 2) throw std::invalid_argument("build_domains: need >= 2 centers");
  require_pair_indexable(n, "build_domains");
  // Count pass, then fill pass: exact per-server reservations without
  // keeping anything per pair in between (owners are recomputed).
  std::vector<std::uint64_t> counts(p, 0);
  std::uint64_t k = 0;
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j, ++k) {
      ++counts[pair_owner(strategy, k, i, j, n, p, seed)];
    }
  }
  std::vector<std::vector<PairIdx>> domains(p);
  for (int s = 0; s < p; ++s) domains[s].reserve(counts[s]);
  k = 0;
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j, ++k) {
      domains[pair_owner(strategy, k, i, j, n, p, seed)].push_back(
          make_pair_idx(i, j));
    }
  }
  return domains;
}

std::uint64_t ServerDomain::update(const MolecularComplex& mc, double cutoff,
                                   PairUpdatePath path) {
  used_cells_ = false;
  if (cutoff <= 0.0) {
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
    update_brute(mc, c2);
  }
  return domain_.size();
}

bool ServerDomain::cells_profitable(const MolecularComplex& mc,
                                    double cutoff) const {
  const auto n = static_cast<std::uint32_t>(mc.n());
  if (n < cell_crossover_centers()) return false;
  const double total =
      0.5 * static_cast<double>(n) * (static_cast<double>(n) - 1.0);
  const bool full_triangle =
      domain_.size() == static_cast<std::size_t>(total);
  // Grid edge the build would actually use: the full-triangle (Verlet)
  // path builds with the skin-padded cut-off, the subset path with the
  // bare cut-off.  Using the wrong edge here predicts a buildable grid
  // that then degenerates — every update would pay a doomed build attempt.
  const double edge =
      full_triangle ? cutoff * (1.0 + kVerletSkinFactor) : cutoff;
  // Estimate the grid the build would produce from the bounding box (O(n),
  // negligible next to the O(n^2/p) sweep being decided on).  The estimate
  // mirrors CellGrid::build: floor(span/edge) cells per axis, product
  // capped near 8n (past that the grid is sparse and build() shrinks it).
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
  if (ncells < 8.0) return false;  // build() would refuse anyway

  if (full_triangle) {
    // Full-triangle domain: the Verlet-list steady state re-filters only
    // the padded neighbor list per update, which wins from the crossover
    // size up regardless of grid shape.
    return true;
  }
  // Domain subset (p > 1 servers): the grid enumerates candidates from the
  // WHOLE complex — roughly the 27-cell neighborhood fraction of all pairs
  // — and each candidate costs ~kSubsetCandidateCost brute checks (distance
  // + membership lookup), while the brute sweep only touches this server's
  // domain_.  Cells win when the pruned candidate volume undercuts that.
  const double candidates = std::min(total, total * 27.0 / ncells);
  return candidates * kSubsetCandidateCost <
         static_cast<double>(domain_.size());
}

void ServerDomain::update_brute(const MolecularComplex& mc, double c2) {
  active_.clear();
  for (const PairIdx& pr : domain_) {
    if (within_cutoff(mc, pr.i, pr.j, c2)) active_.push_back(pr);
  }
}

bool ServerDomain::update_cells(const MolecularComplex& mc, double c2,
                                double cutoff) {
  const auto n = static_cast<std::uint32_t>(mc.n());
  sx_.resize(n);
  sy_.resize(n);
  sz_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Vec3& r = mc.centers[i].position;
    sx_[i] = r.x;
    sy_[i] = r.y;
    sz_[i] = r.z;
  }
  ensure_membership(n);

  if (membership_ == Membership::LexComplete) {
    // Serial full-triangle domain: every pair is assigned, so the active
    // list is just "all cut-off pairs in lex order".  Keep a Verlet list —
    // candidate j's per row i within cutoff + skin of reference positions —
    // and rebuild it from the cell grid only when some center has moved
    // more than skin/2 since the reference.  While the list is valid (every
    // pair now within the cut-off was within cutoff + skin at reference
    // time), exactly re-filtering it against the current positions yields
    // the brute-force active list bit for bit, in the same lex order, at
    // O(list) instead of O(n^2) cost per update.
    const double skin = kVerletSkinFactor * cutoff;
    bool fresh = verlet_ready_ && verlet_cutoff_ == cutoff && rx_.size() == n;
    if (fresh) {
      const double half_skin2 = (0.5 * skin) * (0.5 * skin);
      for (std::uint32_t i = 0; i < n; ++i) {
        const double dx = sx_[i] - rx_[i];
        const double dy = sy_[i] - ry_[i];
        const double dz = sz_[i] - rz_[i];
        if (dx * dx + dy * dy + dz * dz > half_skin2) {
          fresh = false;
          break;
        }
      }
    }
    if (!fresh) {
      if (!grid_.build(sx_, sy_, sz_, cutoff + skin)) return false;
      ++stats_.verlet_rebuilds;
      const double padded2 = (cutoff + skin) * (cutoff + skin);
      const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
      marks_.assign(words, 0);
      vstart_.assign(n + 1, 0);
      vitems_.clear();
      // Per-row bitset over j (a few hundred bytes, L1-resident): the sweep
      // both orders the row ascending and clears the bits it consumes.
      for (std::uint32_t i = 0; i + 1 < n; ++i) {
        grid_.for_each_near_above(i, sx_[i], sy_[i], sz_[i], padded2,
                                  [&](std::uint32_t j) {
                                    marks_[j >> 6] |= 1ull << (j & 63);
                                  });
        for (std::size_t w = static_cast<std::size_t>(i + 1) >> 6; w < words;
             ++w) {
          std::uint64_t word = marks_[w];
          if (word == 0) continue;
          marks_[w] = 0;
          do {
            const auto bit =
                static_cast<std::uint32_t>(std::countr_zero(word));
            word &= word - 1;
            vitems_.push_back(static_cast<std::uint32_t>(w << 6) + bit);
          } while (word != 0);
        }
        vstart_[i + 1] = static_cast<std::uint32_t>(vitems_.size());
      }
      vstart_[n] = static_cast<std::uint32_t>(vitems_.size());
      rx_ = sx_;
      ry_ = sy_;
      rz_ = sz_;
      verlet_cutoff_ = cutoff;
      verlet_ready_ = true;
    }
    // Exact filter of the padded list against the *current* positions: the
    // same squared-distance expression within_cutoff evaluates, over rows
    // in lex order, j ascending within a row.  The write is branchless
    // (store every candidate, advance only on accept) — at the ~40% accept
    // rate of the padded list a conditional push mispredicts constantly.
    active_.resize(vitems_.size());
    PairIdx* out = active_.data();
    std::size_t cnt = 0;
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      const double xi = sx_[i], yi = sy_[i], zi = sz_[i];
      const std::uint32_t e = vstart_[i + 1];
      for (std::uint32_t t = vstart_[i]; t < e; ++t) {
        const std::uint32_t j = vitems_[t];
        const double dx = xi - sx_[j];
        const double dy = yi - sy_[j];
        const double dz = zi - sz_[j];
        out[cnt] = make_pair_idx(i, j);
        cnt += dx * dx + dy * dy + dz * dz <= c2 ? 1 : 0;
      }
    }
    active_.resize(cnt);
    used_cells_ = true;
    return true;
  }

  if (!grid_.build(sx_, sy_, sz_, cutoff)) return false;

  // Domain-subset memberships: mark assigned candidates within the cut-off
  // in a bitset over domain positions, then sweep it in order — the active
  // list comes out exactly as the brute-force sweep would emit it.
  marks_.assign((domain_.size() + 63) / 64, 0);
  grid_.for_each_candidate([&](std::uint32_t a, std::uint32_t b) {
    const Vec3 d{sx_[a] - sx_[b], sy_[a] - sy_[b], sz_[a] - sz_[b]};
    if (!(d.norm2() <= c2)) return;
    const std::size_t pos = find_position(a, b, n);
    if (pos == kNoPosition) return;
    marks_[pos >> 6] |= 1ull << (pos & 63);
  });

  active_.clear();
  for (std::size_t w = 0; w < marks_.size(); ++w) {
    std::uint64_t word = marks_[w];
    while (word != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      active_.push_back(domain_[(w << 6) + bit]);
    }
  }
  used_cells_ = true;
  return true;
}

void ServerDomain::ensure_membership(std::uint32_t n) {
  if (membership_ready_ && membership_n_ == n) return;
  bool sorted = true;
  for (std::size_t t = 1; t < domain_.size(); ++t) {
    if (!lex_less(domain_[t - 1], domain_[t])) {
      sorted = false;
      break;
    }
  }
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  if (sorted && domain_.size() == total) {
    // Strictly increasing distinct pairs, as many as exist: the full
    // triangle in lex order, so position == pair_rank.  This is the serial
    // engine's domain — no index needed at all.
    membership_ = Membership::LexComplete;
    perm_.clear();
    perm_.shrink_to_fit();
  } else if (sorted) {
    // Freshly built domains are lex-sorted (build_domains appends in
    // enumeration order): binary-search the domain itself.
    membership_ = Membership::SortedDomain;
    perm_.clear();
    perm_.shrink_to_fit();
  } else {
    // Post-adopt(): sorted runs concatenated.  Search an index permutation
    // ordered by pair instead.
    membership_ = Membership::Permuted;
    perm_.resize(domain_.size());
    std::iota(perm_.begin(), perm_.end(), 0u);
    std::sort(perm_.begin(), perm_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return lex_less(domain_[a], domain_[b]);
              });
  }
  membership_n_ = n;
  membership_ready_ = true;
}

std::size_t ServerDomain::find_position(std::uint32_t i, std::uint32_t j,
                                        std::uint32_t n) const noexcept {
  switch (membership_) {
    case Membership::LexComplete:
      return static_cast<std::size_t>(pair_rank(i, j, n));
    case Membership::SortedDomain: {
      const PairIdx key = make_pair_idx(i, j);
      const auto it =
          std::lower_bound(domain_.begin(), domain_.end(), key, lex_less);
      if (it == domain_.end() || it->i != i || it->j != j) return kNoPosition;
      return static_cast<std::size_t>(it - domain_.begin());
    }
    case Membership::Permuted: {
      const PairIdx key = make_pair_idx(i, j);
      const auto it = std::lower_bound(
          perm_.begin(), perm_.end(), key,
          [this](std::uint32_t t, const PairIdx& v) {
            return lex_less(domain_[t], v);
          });
      if (it == perm_.end()) return kNoPosition;
      const PairIdx& found = domain_[*it];
      if (found.i != i || found.j != j) return kNoPosition;
      return static_cast<std::size_t>(*it);
    }
  }
  return kNoPosition;
}

}  // namespace opalsim::opal

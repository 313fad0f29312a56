// Pair distribution and cut-off pair lists.
//
// The replicated-data parallelization assigns every unordered pair (i,j) of
// mass centers to exactly one server (paper §2.1: "each server selects a
// distinct subset of the atom pairs").  The assignment is static for a run;
// the *active* list on each server is rebuilt in the update phase by
// distance-checking the assigned pairs against the cut-off.
//
// The host need not do that O(n^2/p) sweep to find the same list (DESIGN.md,
// "Host execution engine").  A cut-off run from the crossover size up keeps
// one skin-padded Verlet list over the whole complex (SharedPairList), split
// by owner whenever it is rebuilt; each server exact-filters its share of it
// and brute-filters the pairs it adopted in a failover.  Its own pairs are
// then never listed, only counted.  An explicitly listed domain (ServerDomain(std::vector<PairIdx>))
// keeps the brute sweep, plus a private Verlet list when it is the whole
// triangle.  Every path produces the identical active list (same pairs, same
// order); only host wall time differs.  Virtual-time accounting is
// unchanged: update() always reports domain_size() pairs checked, the
// paper's O(n^2) model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "opal/cells.hpp"
#include "opal/complex.hpp"

namespace opalsim::opal {

/// Largest complex the host pair lists can index: both pair indices are
/// 16-bit.  The triangle at this size already holds 2.1G pairs (8.6 GB);
/// the paper's largest complex has 6290 centres.
inline constexpr std::size_t kMaxCenters = 65536;

/// One unordered pair of mass centres, i < j.  Stored at 4 bytes so a host
/// pair list costs half the paper's 2*4 bytes per pair (DESIGN.md, "Host
/// execution engine").
struct PairIdx {
  std::uint16_t i, j;
  friend bool operator==(const PairIdx&, const PairIdx&) = default;
};
static_assert(sizeof(PairIdx) == 4);

/// Bytes per pair the virtual-time cache model charges for a pair list:
/// the paper's c = 2*4 (§2.6), independent of the host struct above.
inline constexpr std::size_t kModelPairBytes = 8;

/// PairIdx from wider indices; callers guarantee j < n <= kMaxCenters.
inline PairIdx make_pair_idx(std::uint32_t i, std::uint32_t j) noexcept {
  return PairIdx{static_cast<std::uint16_t>(i), static_cast<std::uint16_t>(j)};
}

/// Throws std::invalid_argument naming `who` when a complex of `n` centres
/// is too large for 16-bit pair indices.
void require_pair_indexable(std::size_t n, const char* who);

/// How pairs are distributed among servers.
enum class DistributionStrategy {
  /// Opal's historical pseudo-random distribution.  Reproduces the paper's
  /// anomaly ("load balancing problem for runs with an even number of
  /// processors"): the historical generator's parity correlation gives
  /// even-ranked servers ~12% excess work when p is even.  See DESIGN.md.
  PseudoRandomHistorical,
  /// Unbiased hash distribution (the fix; balanced for every p).
  PseudoRandomUniform,
  /// Row i of the pair triangle goes to server i mod p.
  RowCyclic,
  /// Rows i and n-2-i bundled (each bundle has exactly n pairs; balanced).
  Folded,
  /// Multiplicative hash with an even constant: for even p only even-ranked
  /// servers ever receive pairs (the catastrophic version of the bug,
  /// exercised by bench_ablation_distribution).
  EvenMultiplierBug,
};

std::string to_string(DistributionStrategy s);

/// Host path used by ServerDomain::update on an explicitly listed domain.
/// Auto takes the Verlet list when the domain is the whole triangle and the
/// crossover model says it pays off (enough centers, grid dense enough to
/// prune), unless disabled via OPALSIM_CELL_LIST=0; Brute and CellList force
/// a path (CellList still falls back when the domain is a subset or the grid
/// degenerates, e.g. the cut-off exceeds the bounding box).  A run's path
/// picks between listed domains and the shared list the same way
/// (shared_list_enabled).
enum class PairUpdatePath { Auto, Brute, CellList };

/// Crossover in centers: the Auto path's minimum n for the Verlet list of a
/// full-triangle domain and for a run's shared list.  Default from the
/// bench_host_speed crossover sweep (DESIGN.md, "Host execution engine");
/// OPALSIM_CELL_CROSSOVER overrides it (read once, cached).
std::uint32_t cell_crossover_centers();
/// Overrides the cached crossover (tests steer the Auto heuristic
/// in-process; 0 restores the env/default resolution on next read).
void set_cell_crossover_centers(std::uint32_t n);

/// Whether a run of `n` centers with this cut-off and path keeps one
/// SharedPairList and unlisted server domains instead of listing every
/// server's pair domain: a cut-off is set, OPALSIM_CELL_LIST is not 0, and
/// the path is CellList, or Auto from the crossover up.
bool shared_list_enabled(double cutoff, PairUpdatePath path, std::size_t n);

/// Host-path counters for one ServerDomain (bench/metrics introspection;
/// not serialized — checkpointed runs omit the derived metrics keys).  The
/// Verlet counters cover a grid-built list the domain filters whole: its
/// private one, or a one-server run's shared list.  A server of a larger
/// run counts its updates only; the shared list counts its own rebuilds.
struct PairUpdateStats {
  std::uint64_t updates = 0;          ///< update() calls with a cut-off
  std::uint64_t cell_updates = 0;     ///< of which a whole Verlet list served
  std::uint64_t verlet_rebuilds = 0;  ///< grid builds of that list
};

/// Lexicographic rank of pair (i,j), i < j < n, in the full triangle: the
/// pair number `k` that pair_owner takes.
inline std::uint64_t pair_rank(std::uint32_t i, std::uint32_t j,
                               std::uint32_t n) noexcept {
  // Row i starts after sum_{r<i} (n-1-r) = i*(2n-i-1)/2 pairs (the product
  // is always even: i or 2n-i-1 is).
  return static_cast<std::uint64_t>(i) * (2ull * n - i - 1) / 2 +
         (j - i - 1);
}

/// Owner server of pair number `k` = (i,j) under the given strategy.
int pair_owner(DistributionStrategy strategy, std::uint64_t k,
               std::uint32_t i, std::uint32_t j, std::uint32_t n, int p,
               std::uint64_t seed);

/// Enumerates all n(n-1)/2 pairs and builds each server's static domain:
/// a count pass sizes every list exactly, a fill pass writes it; both
/// evaluate pair_owner, so nothing per pair is kept between them.
/// Deterministic in (n, p, strategy, seed); throws std::invalid_argument
/// for p <= 0, n < 2 or n > kMaxCenters.
std::vector<std::vector<PairIdx>> build_domains(std::uint32_t n, int p,
                                                DistributionStrategy strategy,
                                                std::uint64_t seed);

/// The per-server sizes of build_domains(n, p, strategy, seed), counted in
/// one pass that lists nothing.  Same argument checks.
std::vector<std::uint64_t> count_domains(std::uint32_t n, int p,
                                         DistributionStrategy strategy,
                                         std::uint64_t seed);

/// Skin-padded (Verlet) neighbor list over a whole complex: every pair
/// within cutoff + skin of the reference positions it was built at, in lex
/// order (i ascending, j ascending within a row).  While no center has moved
/// more than skin/2 from its reference, every pair now within the cut-off is
/// on the list, so exact-filtering a lex-ordered part of it against the
/// current positions gives the brute-force sweep's list over that part,
/// bit for bit.  Host-only; see DESIGN.md, "Host execution engine".
class VerletList {
 public:
  /// Loads the positions of `mc` as the current ones and reports whether
  /// the list is valid for them at `cutoff`: built for this cut-off and
  /// center count, and no center moved more than skin/2 since.  An invalid
  /// list must be rebuilt before filter() is used.
  bool load(const MolecularComplex& mc, double cutoff);
  /// Rebuilds from the loaded positions through a cell grid.  Returns false
  /// (list left invalid) when the grid degenerates.
  bool build_grid(double cutoff);
  /// Rebuilds from the loaded positions by sweeping the whole triangle:
  /// O(n^2), for small n and degenerate grids.
  void build_sweep(double cutoff);

  std::span<const PairIdx> pairs() const noexcept { return pairs_; }
  /// Whether the current list was enumerated through the cell grid.
  bool grid_built() const noexcept { return grid_built_; }

  /// Appends to `out`, in order, the pairs of `candidates` within sqrt(c2)
  /// at the loaded positions.  The squared distance is the expression
  /// within_cutoff evaluates, so the accept decision is the brute sweep's.
  void filter(std::span<const PairIdx> candidates, double c2,
              std::vector<PairIdx>& out) const;

 private:
  /// Makes the loaded positions the reference of a freshly built list.
  void commit(double cutoff, bool grid);

  bool ready_ = false;
  bool grid_built_ = false;
  double cutoff_ = -1.0;
  std::vector<PairIdx> pairs_;
  std::vector<double> x_, y_, z_;     ///< loaded (current) positions
  std::vector<double> rx_, ry_, rz_;  ///< reference positions of pairs_
  // Build scratch, reused across rebuilds.
  CellGrid grid_;
  std::vector<std::uint64_t> marks_;
};

/// The one Verlet list of a cut-off run, split by owner: after every rebuild
/// server s's candidates are the list's pairs with pair_owner == s, in lex
/// order.  Host-only and never serialized; servers of the run hold it by
/// reference (ServerDomain's shared-list constructor).
class SharedPairList {
 public:
  /// Throws std::invalid_argument for p <= 0 or n > kMaxCenters.
  SharedPairList(std::uint32_t n, int p, DistributionStrategy strategy,
                 std::uint64_t seed);

  /// Brings the list up to date for the positions of `mc` at `cutoff`,
  /// rebuilding and re-splitting it when the skin no longer covers them:
  /// through the cell grid, or by a sweep when the grid degenerates.
  /// Returns true when it rebuilt.
  bool refresh(const MolecularComplex& mc, double cutoff);

  /// Server `s`'s candidates from the last refresh, in lex order.
  std::span<const PairIdx> candidates(int s) const noexcept {
    return split_.empty() ? list_.pairs()
                          : std::span<const PairIdx>(split_[s]);
  }
  const VerletList& list() const noexcept { return list_; }
  int servers() const noexcept { return p_; }
  /// List rebuilds since construction.
  std::uint64_t rebuilds() const noexcept { return rebuilds_; }

 private:
  std::uint32_t n_;
  int p_;
  DistributionStrategy strategy_;
  std::uint64_t seed_;
  VerletList list_;
  std::vector<std::vector<PairIdx>> split_;  ///< per server; empty at p = 1
  std::uint64_t rebuilds_ = 0;
};

/// A server's share of the pair work: the static domain plus the active
/// cut-off list rebuilt by update().  The domain is either listed
/// explicitly, or (a server of a cut-off run) the `owned` pairs of a
/// SharedPairList's partition, which are never listed, followed by the
/// explicitly listed pairs it adopted in failovers.
class ServerDomain {
 public:
  ServerDomain() = default;
  explicit ServerDomain(std::vector<PairIdx> domain)
      : domain_(std::move(domain)) {}
  /// Server `server` of `shared`'s run, owning `owned` pairs (its
  /// count_domains entry).  Only cut-off updates are valid on it.
  ServerDomain(SharedPairList& shared, int server, std::uint64_t owned)
      : shared_(&shared), server_(server), owned_(owned) {}

  /// Rebuilds the active list: pairs within `cutoff` (Angstrom); a
  /// non-positive cutoff means no cut-off (all pairs active, list not
  /// materialized; std::logic_error on a shared-list domain).  A shared-list
  /// domain refreshes the shared list (`mc` must be the whole complex) and
  /// ignores `path`.  Returns the number of pairs checked for virtual-time
  /// accounting (== domain size; the model charges the full sweep
  /// regardless of the host path).
  std::uint64_t update(const MolecularComplex& mc, double cutoff,
                       PairUpdatePath path = PairUpdatePath::Auto);

  /// Pairs the energy evaluation must process.
  std::span<const PairIdx> active() const noexcept {
    return materialized_ ? std::span<const PairIdx>(active_)
                         : std::span<const PairIdx>(domain_);
  }

  /// Failover: takes ownership of `extra` pairs (a dead server's share).
  /// The active list is stale until the next update(); callers force an
  /// update round after adoption.  Pairs must stay unique across the
  /// domain (guaranteed by the disjoint distribution).
  void adopt(std::span<const PairIdx> extra) {
    domain_.insert(domain_.end(), extra.begin(), extra.end());
    ++generation_;
    triangle_known_ = false;
  }

  std::size_t domain_size() const noexcept {
    return static_cast<std::size_t>(owned_) + domain_.size();
  }
  std::size_t active_size() const noexcept {
    return materialized_ ? active_.size() : domain_.size();
  }
  /// Bytes of list storage in the paper's space model (kModelPairBytes
  /// per pair), the figure the virtual-time cache model sees.
  std::size_t list_bytes() const noexcept {
    return active_size() * kModelPairBytes;
  }
  /// True when the last update() went through the own Verlet list (bench
  /// and test introspection).
  bool last_update_used_cells() const noexcept { return used_cells_; }
  /// Cumulative host-path counters since construction/restore.
  const PairUpdateStats& stats() const noexcept { return stats_; }
  /// Version of active(), bumped by adopt(), restore() and every update()
  /// that may change the list (a cut-off rebuild, or leaving one): two
  /// evaluations at the same generation saw the same pairs.  Host memo key
  /// only; never serialized.
  std::uint64_t generation() const noexcept { return generation_; }

  // -- checkpoint/restart (src/ckpt) ---------------------------------------
  // Only the result state is serialized: listed pairs, materialized active
  // list, materialization flag.  The Verlet structures are caches rebuilt on
  // demand, and every host path produces the identical active list — so a
  // resumed server replays the golden run's lists exactly.  An image lists
  // a shared-list server's own pairs too; ParallelOpal writes and strips
  // them (DESIGN.md, "Host execution engine").

  /// The listed pairs: the whole domain, or a shared-list domain's adopted
  /// tail.
  const std::vector<PairIdx>& domain() const noexcept { return domain_; }
  const std::vector<PairIdx>& active_list() const noexcept { return active_; }
  bool materialized() const noexcept { return materialized_; }

  /// Restores serialized list state (`domain` as domain() returns it);
  /// caches start cold (resume only).
  void restore(std::vector<PairIdx> domain, std::vector<PairIdx> active,
               bool materialized) {
    domain_ = std::move(domain);
    active_ = std::move(active);
    materialized_ = materialized;
    ++generation_;
    used_cells_ = false;
    stats_ = {};
    triangle_known_ = false;
  }

 private:
  /// Appends the listed pairs within sqrt(c2) to active_, in order.
  void sweep_listed(const MolecularComplex& mc, double c2);
  /// The own Verlet path; false when it cannot serve this domain.
  bool update_cells(const MolecularComplex& mc, double c2, double cutoff);
  /// Crossover model for the Auto path: does the Verlet list pay off here?
  bool cells_profitable(const MolecularComplex& mc, double cutoff);
  /// Whether the listed domain is the full triangle over n in lex order
  /// (the only shape the own Verlet list serves), cached until it changes.
  bool is_full_triangle(std::uint32_t n);

  std::vector<PairIdx> domain_;
  std::vector<PairIdx> active_;
  bool materialized_ = false;
  bool used_cells_ = false;
  PairUpdateStats stats_;
  std::uint64_t generation_ = 0;

  SharedPairList* shared_ = nullptr;
  int server_ = 0;
  std::uint64_t owned_ = 0;

  bool triangle_known_ = false;
  bool full_triangle_ = false;
  std::uint32_t triangle_n_ = 0;
  VerletList verlet_;
};

}  // namespace opalsim::opal

// Pair distribution and cut-off pair lists.
//
// The replicated-data parallelization assigns every unordered pair (i,j) of
// mass centers to exactly one server (paper §2.1: "each server selects a
// distinct subset of the atom pairs").  The assignment is static for a run;
// the *active* list on each server is rebuilt in the update phase by
// distance-checking the assigned pairs against the cut-off.
//
// Two host execution paths rebuild the active list (DESIGN.md, "Host
// execution engine"): the brute-force sweep over the assigned pairs (the
// paper's algorithm, O(n^2/p) distance checks) and a linked-cell path that
// enumerates only neighbor-cell candidates and filters them through a
// membership index of the static domain.  Both produce the identical active
// list (same pairs, same order); only host wall time differs.  Virtual-time
// accounting is unchanged: update() always reports domain_size() pairs
// checked, the paper's O(n^2) model.
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

/// Host path used by ServerDomain::update to rebuild the active list.
/// Auto picks the cell list when the crossover model says it pays off
/// (cut-off set, enough centers/pairs, grid dense enough to prune) unless
/// disabled via OPALSIM_CELL_LIST=0; Brute and CellList force a path
/// (CellList still falls back when the grid degenerates, e.g. the cut-off
/// exceeds the bounding box).
enum class PairUpdatePath { Auto, Brute, CellList };

/// Auto-path crossover: minimum center count before the cell-list path is
/// considered.  Default from the bench_host_speed crossover sweep
/// (DESIGN.md, "Host execution engine"); OPALSIM_CELL_CROSSOVER overrides
/// it (read once, cached).
std::uint32_t cell_crossover_centers();
/// Overrides the cached crossover (tests steer the Auto heuristic
/// in-process; 0 restores the env/default resolution on next read).
void set_cell_crossover_centers(std::uint32_t n);

/// Host-path counters for one ServerDomain (bench/metrics introspection;
/// not serialized — checkpointed runs omit the derived metrics keys).
struct PairUpdateStats {
  std::uint64_t updates = 0;          ///< update() calls with a cut-off
  std::uint64_t cell_updates = 0;     ///< of which the cell path served
  std::uint64_t verlet_rebuilds = 0;  ///< grid builds of the Verlet list
};

/// Owner server of pair number `k` = (i,j) under the given strategy.
int pair_owner(DistributionStrategy strategy, std::uint64_t k,
               std::uint32_t i, std::uint32_t j, std::uint32_t n, int p,
               std::uint64_t seed);

/// Enumerates all n(n-1)/2 pairs and builds each server's static domain:
/// a count pass sizes every list exactly, a fill pass writes it; both
/// evaluate pair_owner, so nothing per pair is kept between them.
/// Deterministic in (n, p, strategy, seed); throws std::invalid_argument
/// for n > kMaxCenters.
std::vector<std::vector<PairIdx>> build_domains(std::uint32_t n, int p,
                                                DistributionStrategy strategy,
                                                std::uint64_t seed);

/// A server's share of the pair work: the static domain plus the active
/// cut-off list rebuilt by update().
class ServerDomain {
 public:
  ServerDomain() = default;
  explicit ServerDomain(std::vector<PairIdx> domain)
      : domain_(std::move(domain)) {}

  /// Rebuilds the active list: pairs within `cutoff` (Angstrom); a
  /// non-positive cutoff means no cut-off (all pairs active, list not
  /// materialized).  Returns the number of pairs checked for virtual-time
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
    membership_ready_ = false;
    verlet_ready_ = false;
  }

  std::size_t domain_size() const noexcept { return domain_.size(); }
  std::size_t active_size() const noexcept {
    return materialized_ ? active_.size() : domain_.size();
  }
  /// Bytes of list storage in the paper's space model (kModelPairBytes
  /// per pair), the figure the virtual-time cache model sees.
  std::size_t list_bytes() const noexcept {
    return active_size() * kModelPairBytes;
  }
  /// True when the last update() went through the cell-list path (bench
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
  // Only the result state is serialized: static domain, materialized active
  // list, materialization flag.  The membership/cell/Verlet structures are
  // lazy caches rebuilt on demand, and both host paths produce the identical
  // active list — so a resumed server replays the golden run's lists exactly.

  const std::vector<PairIdx>& domain() const noexcept { return domain_; }
  const std::vector<PairIdx>& active_list() const noexcept { return active_; }
  bool materialized() const noexcept { return materialized_; }

  /// Restores serialized list state; caches start cold (resume only).
  void restore(std::vector<PairIdx> domain, std::vector<PairIdx> active,
               bool materialized) {
    domain_ = std::move(domain);
    active_ = std::move(active);
    materialized_ = materialized;
    ++generation_;
    used_cells_ = false;
    stats_ = {};
    membership_ready_ = false;
    verlet_ready_ = false;
  }

 private:
  /// How candidate pairs map back to positions in domain_.
  enum class Membership : unsigned char {
    LexComplete,   ///< full triangle in lex order: position == pair rank
    SortedDomain,  ///< domain_ lex-sorted: binary search on it directly
    Permuted,      ///< post-adopt: binary search the rank-sorted perm_
  };

  void update_brute(const MolecularComplex& mc, double c2);
  bool update_cells(const MolecularComplex& mc, double c2, double cutoff);
  /// Crossover model for the Auto path: does the cell list pay off here?
  bool cells_profitable(const MolecularComplex& mc, double cutoff) const;
  void ensure_membership(std::uint32_t n);
  /// Position of (i,j) in domain_, or npos when not assigned here.
  std::size_t find_position(std::uint32_t i, std::uint32_t j,
                            std::uint32_t n) const noexcept;

  std::vector<PairIdx> domain_;
  std::vector<PairIdx> active_;
  bool materialized_ = false;
  bool used_cells_ = false;
  PairUpdateStats stats_;
  std::uint64_t generation_ = 0;

  // Membership index over the static domain (built lazily, invalidated by
  // adopt()).
  bool membership_ready_ = false;
  Membership membership_ = Membership::SortedDomain;
  std::uint32_t membership_n_ = 0;
  std::vector<std::uint32_t> perm_;

  // Per-update scratch, reused across calls.
  CellGrid grid_;
  std::vector<double> sx_, sy_, sz_;
  std::vector<std::uint64_t> marks_;

  // Verlet (skin-padded) neighbor list for the serial full-triangle domain:
  // CSR rows of candidate j's per i within cutoff + skin of the reference
  // positions rx_/ry_/rz_.  Valid while no center has moved more than
  // skin/2 from its reference — then exact distance-filtering the list
  // reproduces the brute-force active list bit for bit.  See DESIGN.md,
  // "Host execution engine".
  bool verlet_ready_ = false;
  double verlet_cutoff_ = -1.0;
  std::vector<std::uint32_t> vstart_, vitems_;
  std::vector<double> rx_, ry_, rz_;
};

}  // namespace opalsim::opal

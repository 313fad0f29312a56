// The parallel Opal: one client and p servers in a client-server setting
// over the Sciddle RPC middleware on a simulated platform (paper §2.1).
//
// Per simulation step:
//   1. (every update_every steps) "update" RPC: the client ships the atom
//      coordinates; each server distance-checks its pair domain and rebuilds
//      its list of all active pairs.  The reply carries no data (eq. 8).
//   2. "nbint" RPC: coordinates out; each server evaluates the van der Waals
//      and Coulomb energies and the gradient over its active list; the reply
//      carries two energies plus the 3n gradient components (eq. 9).
//      On the host, a round large enough to pay for it evaluates every live
//      server's kernel in parallel before the DES runs the handlers, which
//      then find their results in a per-server memo; virtual time, replies
//      and physics are unchanged (DESIGN.md, "Host-parallel server rounds").
//   3. The client sums the partial results, evaluates the bonded terms,
//      integrates, and updates the observables (the sequential part, eq. 5).
//
// The run executes real physics (identical to SerialOpal) while virtual
// time advances per the platform's CPU and network models; the returned
// RunMetrics is the measured breakdown the paper's Figures 1-2 plot.
#pragma once

#include <cstdint>
#include <vector>

#include "mach/platform.hpp"
#include "opal/complex.hpp"
#include "opal/config.hpp"
#include "opal/metrics.hpp"
#include "sciddle/rpc.hpp"

namespace opalsim::opal {

struct ParallelRunResult {
  SimResult physics;
  RunMetrics metrics;
  /// Total handler busy time per server (reveals load imbalance).
  std::vector<double> server_busy;
  /// Counted MFlop per server as each platform's monitor reports them.
  std::vector<double> server_counted_mflop;
  /// Host-only: nbint rounds whose server kernels ran in parallel on host
  /// threads.  It depends on the host and on the calling thread, so it
  /// stays out of RunMetrics, traces, metrics snapshots and images.
  std::uint64_t host_fanout_rounds = 0;
};

class ParallelOpal {
 public:
  /// Throws std::invalid_argument for a bad server count or kill target,
  /// or a complex over kMaxCenters centres.
  ParallelOpal(mach::PlatformSpec platform, MolecularComplex mc,
               int num_servers, SimulationConfig cfg,
               sciddle::Options middleware = {});

  /// Runs the whole simulation to completion and returns physics +
  /// measured breakdown.  May be called once per instance.
  ParallelRunResult run();

  int num_servers() const noexcept { return num_servers_; }
  const SimulationConfig& config() const noexcept { return cfg_; }

 private:
  mach::PlatformSpec platform_;
  MolecularComplex mc_;
  int num_servers_;
  SimulationConfig cfg_;
  sciddle::Options middleware_;
  bool ran_ = false;
};

}  // namespace opalsim::opal

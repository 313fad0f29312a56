// Parallelization alternatives (paper §2.1 "Parallelization Alternatives"):
//
//  - replicated-data (RD): the method Opal uses — every server holds all
//    coordinates; pairs are distributed pseudo-randomly (see parallel.hpp).
//  - space decomposition (SD): the box is cut into p slabs along x; each
//    server owns the mass centers in its slab and receives ghost centers
//    within the cut-off of its boundaries.  Communication volume per server
//    drops from O(n) to O(n/p + ghost) when a cut-off is active.
//  - force decomposition (FD, Plimpton & Hendrickson): the force matrix is
//    partitioned into an a x b block grid (a*b = p); server (u,v) receives
//    the coordinates of row band u and column band v — O(n/a + n/b) per
//    server, the classic sqrt(p) communication advantage.
//
// All three produce identical physics (tested against SerialOpal); they
// differ in communication volume, balance, and update cost — the trade-offs
// bench_ablation_decomposition quantifies.
#pragma once

#include <string>

#include "mach/platform.hpp"
#include "opal/complex.hpp"
#include "opal/config.hpp"
#include "opal/parallel.hpp"
#include "sciddle/rpc.hpp"

namespace opalsim::opal {

enum class Method {
  ReplicatedData,
  SpaceDecomposition,
  ForceDecomposition,
};

std::string to_string(Method m);

/// Factorizes p into a grid a x b with a <= b and a as close to sqrt(p) as
/// possible (used by the FD method).
std::pair<int, int> fd_grid(int p);

/// Runs the parallel Opal with the chosen parallelization method on the
/// given platform.  RD dispatches to ParallelOpal; SD/FD use their own
/// client/server drivers over the same Sciddle middleware.  Every method
/// throws std::invalid_argument for a complex over kMaxCenters centres.
ParallelRunResult run_with_method(Method method,
                                  const mach::PlatformSpec& platform,
                                  MolecularComplex mc, int num_servers,
                                  const SimulationConfig& cfg,
                                  sciddle::Options middleware = {});

/// Communication bytes shipped client->servers per nbint round for each
/// method (analytic; used by the ablation bench and tests).
double call_bytes_per_step(Method method, std::size_t n, int p,
                           double ghost_fraction = 1.0);

}  // namespace opalsim::opal

// §2.6 space-complexity table: size of the Opal data structures as a
// function of problem size, evaluated for the large example (6289/6290 mass
// centers as in the paper's table).
#include <cstdint>

#include "bench_common.hpp"
#include "opal/pairs.hpp"

namespace {
using namespace opalsim;
}

int main() {
  bench::banner("Section 2.6 — data-structure sizes (space model)",
                "Taufer & Stricker 1998, §2.6 first table");

  auto mc = bench::large_complex();
  const auto n = static_cast<double>(mc.n());
  const double gamma = mc.gamma();

  // Actual pair-list bytes: build the single-server domain and materialize
  // the full (no cut-off) list once.
  auto domains = opal::build_domains(static_cast<std::uint32_t>(mc.n()), 1,
                                     opal::DistributionStrategy::Folded, 1);
  opal::ServerDomain dom(std::move(domains[0]));
  dom.update(mc, 1e9);  // effectively no cut-off but materialized

  // "actual" is what a run's cache model sees; "host" is what this process
  // allocates.  They differ only for the pair list: the model charges the
  // paper's c = 2*4 bytes per pair, the host stores 4.
  util::Table t({"structure", "order", "constant [bytes]",
                 "model size [bytes]", "actual [bytes]", "host [bytes]"});
  const double model_pair = static_cast<double>(opal::kModelPairBytes);
  t.row()
      .add("pair list")
      .add("c n(n-1)/2")
      .add(static_cast<int>(opal::kModelPairBytes))
      .add(model_pair * n * (n - 1.0) / 2.0, 0)
      .add(static_cast<unsigned long>(dom.list_bytes()))
      .add(static_cast<unsigned long>(dom.active_size() *
                                      sizeof(opal::PairIdx)));
  const auto coord_bytes =
      static_cast<unsigned long>(mc.flat_coordinates().size() * 8);
  t.row()
      .add("atom coordinates")
      .add("c n")
      .add(24)
      .add(24.0 * n, 0)
      .add(coord_bytes)
      .add(coord_bytes);
  const auto grad_bytes = static_cast<unsigned long>(3 * mc.n() * 8);
  t.row()
      .add("atom gradients")
      .add("c n")
      .add(24)
      .add(24.0 * n, 0)
      .add(grad_bytes)
      .add(grad_bytes);
  // Interaction parameters are replicated per mass centre (charge + c12 +
  // c6 as 3 doubles in our layout; the paper counts 2*8 per solute-ish n).
  const auto param_bytes = static_cast<unsigned long>(mc.n() * 3 * 8);
  t.row()
      .add("atom interactions")
      .add("c (1-gamma-ish) n")
      .add(16)
      .add(16.0 * (1.0 - gamma) * n + 16.0 * gamma * n, 0)
      .add(param_bytes)
      .add(param_bytes);
  t.row().add("energy values").add("c").add(16).add(16.0, 0).add(16).add(16);
  bench::emit(t, "mem_structures");

  std::cout << "Paper values (6290 mass centers): pair list 160'000'000, "
               "coordinates 1'000'000, gradients 1'000'000,\n"
            << "interactions 3'000'000, energies 16 bytes.  Our full pair "
               "list is n(n-1)/2*8 = "
            << util::format_number(model_pair * n * (n - 1.0) / 2.0, 0)
            << " bytes in the model — the same 1.6e8 order; the host stores "
               "it at "
            << sizeof(opal::PairIdx) << " bytes per pair.\n";
  return 0;
}

// Traced replay of one ParallelOpal scenario's host work.
//
// ParallelOpal interleaves its Opal computation with the DES/PVM/Sciddle
// stack, so a host profile of a run cannot tell the two apart without
// instrumenting the library.  The replay instead calls the same public
// opal:: functions ParallelOpal's handlers and client call, in the same
// order and on the same data, and times each call as a span.  What the
// replay does not spend, the real run spent in the stack: the benchmark
// reports that difference as stack.residual.s.
//
// The replay is checked, not trusted: it sums the per-server energies and
// gradients in server order exactly as the client does, so its final
// physics must equal the run's bit for bit.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "opal/complex.hpp"
#include "opal/config.hpp"
#include "opal/metrics.hpp"

namespace opalbench {

using Clock = std::chrono::steady_clock;

/// Host layers the replay attributes time to.  kScenario is the root span
/// around a whole replay (its self time is the replay's own glue: reducing
/// the server results), kRun and kTracedRun are the real ParallelOpal runs
/// the replay is compared against.
enum class Layer : std::uint8_t {
  kBuildDomains,
  kUpdate,
  kNonbonded,
  kCoords,
  kBonded,
  kIntegrate,
  kScenario,
  kRun,
  kTracedRun,
};
inline constexpr std::size_t kOpalLayers = 6;  ///< kBuildDomains..kIntegrate
inline constexpr std::size_t kLayers = 9;

const char* layer_name(Layer layer);

/// One timed call; times are nanoseconds since the process epoch.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t scenario = 0;  ///< run-wide scenario sequence number
  std::uint16_t thread = 0;    ///< pool participant that ran it
  Layer layer = Layer::kScenario;
};

/// Process-wide in-memory span store, written out when the run ends.  Keeps
/// at most `cap` spans; later ones are counted but not kept (the layer
/// totals each replay returns are exact regardless).
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap) : cap_(cap) {}

  void append(const std::vector<Span>& spans);
  /// Chrome trace_event JSON (Perfetto-loadable), host microseconds.
  std::string to_chrome_json() const;
  std::size_t kept() const;
  std::uint64_t dropped() const;

 private:
  mutable std::mutex mutex_;
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

std::int64_t now_ns();

struct ReplayCounters {
  std::uint64_t domain_pairs = 0;     ///< pairs build_domains emitted
  std::uint64_t domain_bytes = 0;     ///< bytes it computed (lists + memo)
  std::uint64_t update_calls = 0;     ///< ServerDomain::update calls
  std::uint64_t pairs_checked = 0;    ///< what update() reported checked
  std::uint64_t cutoff_updates = 0;   ///< stats().updates (cut-off set)
  std::uint64_t cell_updates = 0;     ///< of which the cell path served
  std::uint64_t nonbonded_pairs = 0;  ///< pairs nonbonded_batch evaluated
};

struct ReplayResult {
  opalsim::opal::SimResult physics;
  ReplayCounters counters;
  std::array<double, kLayers> layer_s{};  ///< summed span seconds per layer
};

/// Replays `p` servers' and the client's host work for `cfg` on `mc`,
/// recording spans tagged with `scenario` and `thread` into `spans`.
ReplayResult replay_scenario(const opalsim::opal::MolecularComplex& mc, int p,
                             const opalsim::opal::SimulationConfig& cfg,
                             std::uint32_t scenario, std::uint16_t thread,
                             std::vector<Span>& spans);

}  // namespace opalbench

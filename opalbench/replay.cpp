#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "opal/forcefield.hpp"
#include "opal/pairs.hpp"
#include "opal/serial.hpp"
#include "opal/soa.hpp"

namespace opalbench {

using namespace opalsim;

namespace {

const Clock::time_point kEpoch = Clock::now();

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBuildDomains: return "opal.build_domains";
    case Layer::kUpdate: return "opal.update";
    case Layer::kNonbonded: return "opal.nonbonded";
    case Layer::kCoords: return "opal.coords";
    case Layer::kBonded: return "opal.bonded";
    case Layer::kIntegrate: return "opal.integrate";
    case Layer::kScenario: return "replay";
    case Layer::kRun: return "parallel_opal.run";
    case Layer::kTracedRun: return "parallel_opal.run+metrics";
  }
  return "?";
}

void SpanLog::append(const std::vector<Span>& spans) {
  const std::lock_guard<std::mutex> lk(mutex_);
  const std::size_t room = cap_ - std::min(cap_, spans_.size());
  const std::size_t take = std::min(room, spans.size());
  spans_.insert(spans_.end(), spans.begin(),
                spans.begin() + static_cast<std::ptrdiff_t>(take));
  dropped_ += spans.size() - take;
}

std::size_t SpanLog::kept() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  return spans_.size();
}

std::uint64_t SpanLog::dropped() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  return dropped_;
}

std::string SpanLog::to_chrome_json() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[256];
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"cat\": \"host\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"scenario\": %u}}",
                  k == 0 ? "" : ",\n", layer_name(s.layer),
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned>(s.thread),
                  static_cast<unsigned>(s.scenario));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

ReplayResult replay_scenario(const opal::MolecularComplex& mc_in, int p,
                             const opal::SimulationConfig& cfg,
                             std::uint32_t scenario, std::uint16_t thread,
                             std::vector<Span>& spans) {
  if (cfg.mode != opal::RunMode::Dynamics) {
    throw std::invalid_argument("replay: only dynamics runs are replayed");
  }
  ReplayResult r;
  const std::int64_t root_start = now_ns();
  auto timed = [&](Layer layer, auto&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    spans.push_back(Span{t0, t1, scenario, thread, layer});
    r.layer_s[static_cast<std::size_t>(layer)] +=
        static_cast<double>(t1 - t0) * 1e-9;
  };

  // Client state, as ParallelOpal holds it.
  opal::MolecularComplex mc = mc_in;
  const std::size_t n = mc.n();

  std::vector<std::vector<opal::PairIdx>> domains;
  timed(Layer::kBuildDomains, [&] {
    domains = opal::build_domains(static_cast<std::uint32_t>(n), p,
                                  cfg.strategy, cfg.seed);
  });
  for (const auto& d : domains) r.counters.domain_pairs += d.size();
  // The pair lists plus build_domains' u16 owner memo over every pair.
  r.counters.domain_bytes =
      r.counters.domain_pairs *
      (sizeof(opal::PairIdx) + sizeof(std::uint16_t));

  struct Server {
    opal::MolecularComplex replica;
    opal::ServerDomain domain;
    std::vector<opal::Vec3> grad;
    opal::CentersSoA soa;
    double evdw = 0.0;
    double ecoul = 0.0;
  };
  std::vector<Server> servers(static_cast<std::size_t>(p));
  for (int s = 0; s < p; ++s) {
    Server& sv = servers[static_cast<std::size_t>(s)];
    sv.replica = mc;
    sv.domain = opal::ServerDomain(std::move(domains[static_cast<std::size_t>(s)]));
    sv.grad.resize(n);
    timed(Layer::kCoords, [&] { sv.soa.refresh_params(sv.replica); });
  }

  std::vector<opal::Vec3> velocities(n);
  std::vector<opal::Vec3> grad(n);
  std::vector<double> update_coords;
  for (int step = 0; step < cfg.steps; ++step) {
    std::vector<double> coords;
    timed(Layer::kCoords, [&] { coords = mc.flat_coordinates(); });
    if (step % cfg.update_every == 0) {
      update_coords = coords;
      // "update" handler on every server.
      for (Server& sv : servers) {
        timed(Layer::kCoords,
              [&] { sv.replica.set_flat_coordinates(update_coords); });
        timed(Layer::kUpdate, [&] {
          r.counters.pairs_checked +=
              sv.domain.update(sv.replica, cfg.cutoff, cfg.pair_path);
        });
        ++r.counters.update_calls;
      }
    }
    // "nbint" handler on every server.
    for (Server& sv : servers) {
      timed(Layer::kCoords, [&] {
        sv.replica.set_flat_coordinates(coords);
        sv.soa.refresh_positions(sv.replica);
      });
      timed(Layer::kNonbonded, [&] {
        std::fill(sv.grad.begin(), sv.grad.end(), opal::Vec3{});
        sv.evdw = 0.0;
        sv.ecoul = 0.0;
        opal::nonbonded_batch(sv.soa, sv.domain.active(), sv.evdw, sv.ecoul,
                              sv.grad);
      });
      r.counters.nonbonded_pairs += sv.domain.active_size();
    }
    // Client reduction in server order, then the sequential part.
    double evdw = 0.0, ecoul = 0.0;
    std::fill(grad.begin(), grad.end(), opal::Vec3{});
    for (const Server& sv : servers) {
      evdw += sv.evdw;
      ecoul += sv.ecoul;
      for (std::size_t i = 0; i < n; ++i) grad[i] += sv.grad[i];
    }
    r.physics.evdw = evdw;
    r.physics.ecoul = ecoul;
    timed(Layer::kBonded,
          [&] { r.physics.bonded = opal::evaluate_bonded(mc, grad); });
    timed(Layer::kIntegrate, [&] {
      opal::fill_observables(mc, velocities, grad, r.physics);
      if (cfg.integrate) opal::leapfrog_step(mc, velocities, grad, cfg.dt);
    });
  }
  for (const Server& sv : servers) {
    r.counters.cutoff_updates += sv.domain.stats().updates;
    r.counters.cell_updates += sv.domain.stats().cell_updates;
  }
  const std::int64_t root_end = now_ns();
  spans.push_back(Span{root_start, root_end, scenario, thread, Layer::kScenario});
  r.layer_s[static_cast<std::size_t>(Layer::kScenario)] =
      static_cast<double>(root_end - root_start) * 1e-9;
  return r;
}

}  // namespace opalbench

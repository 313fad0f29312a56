// OpalSim end-to-end benchmark binary: runs one workload for a fixed time
// and prints a raw result record (one JSON line) that run.py turns into the
// benchmark's metrics.  See README.md for the workloads and the metrics.
//
//   opalbench --workload calib84|large_nocut_p7|middleware_ft --seed N
//             --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//
// --trace 0 times whole ParallelOpal scenarios (construction + run()).
// --trace 1 runs each scenario plain, replays its Opal host work under spans
// (replay.hpp), runs it again with a metrics snapshot, and reports the
// per-layer split; spans go to DIR/<workload>-s<seed>.host_trace.json and a
// self-time table to DIR/<workload>-s<seed>.selftime.txt.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "doe/design.hpp"
#include "mach/platforms_db.hpp"
#include "model/analytic.hpp"
#include "model/calibrate.hpp"
#include "model/prediction.hpp"
#include "opal/parallel.hpp"
#include "opal/serial.hpp"
#include "replay.hpp"
#include "sim/fault.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace opalsim;
using opalbench::Layer;
using opalbench::now_ns;

// ---------------------------------------------------------------- inputs --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--out-dir") {
      a.out_dir = value();
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (a.workload.empty() || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// One ParallelOpal run: molecule, server count, configuration, platform and
/// middleware.
struct Scenario {
  std::string name;
  std::size_t complex = 0;  ///< index into Workload::complexes
  int p = 1;
  opal::SimulationConfig cfg;
  mach::PlatformSpec platform;
  sciddle::Options mw;
  int cell = -1;  ///< calib84: (size, cut-off, update) cell
};

struct Workload {
  std::vector<opal::MolecularComplex> complexes;
  std::vector<Scenario> prologue;  ///< run once, before the loop
  std::vector<Scenario> loop;      ///< repeated until the deadline
  bool pooled = false;
};

/// The workload seed drives SimulationConfig::seed and FaultSpec::seed
/// directly; the molecule generator gets it offset by 41, so that seed 1
/// reproduces the repository's default inputs (generator seed 42, run seed
/// 1) and with them EXPERIMENTS.md.
std::uint64_t molecule_seed(std::uint64_t seed) { return seed + 41; }

opal::MolecularComplex complex_of(std::size_t n_solute, std::size_t n_water,
                                  const char* name, std::uint64_t seed,
                                  double scale) {
  opal::SyntheticSpec spec;
  spec.name = name;
  spec.n_solute = std::max<std::size_t>(
      2, static_cast<std::size_t>(static_cast<double>(n_solute) * scale));
  spec.n_water = std::max<std::size_t>(
      2, static_cast<std::size_t>(static_cast<double>(n_water) * scale));
  spec.seed = molecule_seed(seed);
  return opal::make_synthetic_complex(spec);
}

// middleware_ft: steps per scenario (smoke: far fewer).
constexpr int kFtSteps = 20000;

Workload make_workload(const Args& a) {
  const double scale = a.smoke ? 0.1 : 1.0;
  const int steps = a.smoke ? 2 : 10;
  Workload w;
  if (a.workload == "calib84") {
    // The paper's Figure 3 parameter space, in bench_fig4_calibration's
    // order (servers fastest).
    w.complexes.push_back(complex_of(504, 996, "small", a.seed, scale));
    w.complexes.push_back(complex_of(1575, 2714, "medium", a.seed, scale));
    w.complexes.push_back(complex_of(1655, 4634, "large", a.seed, scale));
    doe::FullFactorial space({{"servers", {"1", "2", "3", "4", "5", "6", "7"}},
                              {"size", {"small", "medium", "large"}},
                              {"cutoff", {"none", "10A"}},
                              {"update", {"full", "partial"}}});
    for (std::size_t run = 0; run < space.num_runs(); ++run) {
      const std::vector<std::size_t> lv = space.levels_of(run);
      Scenario s;
      s.p = static_cast<int>(lv[0]) + 1;
      s.complex = lv[1];
      s.cfg.steps = steps;
      s.cfg.cutoff = lv[2] == 1 ? 10.0 : -1.0;
      s.cfg.update_every = lv[3] == 1 ? 10 : 1;
      s.cfg.seed = a.seed;
      s.platform = mach::cray_j90();
      s.cell = static_cast<int>(lv[1] * 4 + lv[2] * 2 + lv[3]);
      s.name = "p" + std::to_string(s.p) + "-" + space.level_name(run, 1) +
               "-" + space.level_name(run, 2) + "-" + space.level_name(run, 3);
      w.loop.push_back(std::move(s));
    }
    w.pooled = true;
  } else if (a.workload == "large_nocut_p7") {
    w.complexes.push_back(complex_of(1655, 4634, "large", a.seed, scale));
    Scenario s;
    s.name = "p7-large-none-full";
    s.p = 7;
    s.cfg.steps = steps;
    s.cfg.seed = a.seed;
    s.platform = mach::cray_j90();
    w.loop.push_back(std::move(s));
  } else if (a.workload == "middleware_ft") {
    // A few dozen centres: the kernels are trivial and host time goes to
    // the DES/PVM/Sciddle stack.
    opal::SyntheticSpec spec;
    spec.name = "tiny";
    spec.n_solute = 12;
    spec.n_water = 24;
    spec.seed = molecule_seed(a.seed);
    w.complexes.push_back(opal::make_synthetic_complex(spec));
    Scenario legacy;
    legacy.name = "p7-tiny-10A-partial-legacy";
    legacy.p = 7;
    legacy.cfg.steps = a.smoke ? 200 : kFtSteps;
    legacy.cfg.cutoff = 10.0;
    legacy.cfg.update_every = 10;
    legacy.cfg.seed = a.seed;
    legacy.platform = mach::slow_cops();
    w.prologue.push_back(legacy);
    // The FT scenario's retry timeout is sized from the legacy run's clean
    // step time once that has run (as bench_fault_tolerance does).
    Scenario ft = legacy;
    ft.name = "p7-tiny-10A-partial-ft";
    ft.mw.retry.enabled = true;
    sim::FaultSpec fault;
    fault.seed = a.seed;
    fault.drop_rate = 0.01;
    fault.duplicate_rate = 0.01;
    ft.platform = mach::with_faults(ft.platform, fault);
    w.loop.push_back(std::move(ft));
  } else {
    throw std::invalid_argument("unknown workload " + a.workload);
  }
  return w;
}

// ------------------------------------------------------------ host shape --

unsigned host_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint16_t participant_id() {
  static std::atomic<std::uint16_t> next{0};
  thread_local const std::uint16_t id = next.fetch_add(1);
  return id;
}

// --------------------------------------------------------------- oracles --

std::uint64_t fnv(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Digest of every virtual-time field of a run's RunMetrics.
std::string metrics_digest(const opal::RunMetrics& m) {
  const double d[] = {m.par_update, m.par_nbint, m.seq_comp, m.call_upd,
                      m.return_upd, m.call_nbi,  m.return_nbi, m.sync,
                      m.idle,       m.recovery,  m.wall};
  const std::uint64_t u[] = {m.pairs_checked,   m.pairs_evaluated,
                             m.list_updates,    m.retries,
                             m.timeouts,        m.heartbeats,
                             m.failovers,       m.servers_failed,
                             m.msgs_dropped,    m.msgs_duplicated,
                             m.msgs_corrupted};
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv(h, d, sizeof(d));
  h = fnv(h, u, sizeof(u));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::vector<double> physics_fields(const opal::SimResult& r) {
  return {r.evdw,           r.ecoul,          r.bonded.bond,
          r.bonded.angle,   r.bonded.dihedral, r.bonded.improper,
          r.kinetic,        r.temperature,    r.pressure,
          r.volume};
}

bool physics_identical(const opal::SimResult& a, const opal::SimResult& b) {
  const std::vector<double> x = physics_fields(a), y = physics_fields(b);
  return std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// The relative agreement tests/opal/test_parallel.cpp requires between
/// runs that sum the same pairs in different orders.
bool physics_close(const opal::SimResult& a, const opal::SimResult& b,
                   double rel = 1e-9) {
  auto near = [rel](double x, double y) {
    const double scale = std::max({std::abs(x), std::abs(y), 1.0});
    return std::abs(x - y) <= rel * scale;
  };
  return near(a.evdw, b.evdw) && near(a.ecoul, b.ecoul) &&
         near(a.bonded.total(), b.bonded.total()) &&
         near(a.temperature, b.temperature) && near(a.pressure, b.pressure) &&
         a.volume == b.volume;
}

// ------------------------------------------------------------- execution --

/// One executed scenario.
struct Sample {
  std::size_t index = 0;  ///< position in its batch
  const Scenario* sc = nullptr;
  double host_s = 0.0;  ///< ParallelOpal construction + run()
  double task_s = 0.0;  ///< everything the pool task did for it
  opal::SimResult physics;
  opal::RunMetrics metrics;
  std::string digest;
  bool ok = true;
  // --trace 1 only:
  double traced_s = 0.0;  ///< the same run with a metrics snapshot
  opalbench::ReplayResult replay;
  std::map<std::string, double> snapshot;  ///< metrics_out keys read back
};

struct BatchStats {
  double wall_s = 0.0;
  double busy_s = 0.0;
  std::uint64_t steals = 0;
};

struct Runner {
  const Args& args;
  const Workload& w;
  util::ThreadPool* pool;  ///< null: run on the calling thread
  opalbench::SpanLog& log;
  std::atomic<std::uint32_t> next_scenario{0};
  std::mutex failures_mutex;
  std::vector<std::string> failures;

  void fail(Sample& s, const std::string& why) {
    s.ok = false;
    const std::lock_guard<std::mutex> lk(failures_mutex);
    failures.push_back(s.sc->name + ": " + why);
  }

  /// ParallelOpal construction + run(), timed; the molecule copy is not.
  opal::ParallelRunResult run_parallel(const Scenario& sc,
                                       const std::string& metrics_out,
                                       double& seconds) {
    opal::MolecularComplex mc = w.complexes[sc.complex];
    opal::SimulationConfig cfg = sc.cfg;
    cfg.metrics_out = metrics_out;
    const std::int64_t t0 = now_ns();
    opal::ParallelOpal par(sc.platform, std::move(mc), sc.p, cfg, sc.mw);
    opal::ParallelRunResult r = par.run();
    seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    return r;
  }

  /// The traced leg of a scenario whose plain run is done: the replay of
  /// its Opal host work, then the run again with a metrics snapshot.
  void run_traced(Sample& s, std::uint32_t id, std::vector<opalbench::Span>& spans) {
    const std::string path = args.out_dir + "/tmp/" + args.workload + "-" +
                             std::to_string(args.seed) + "-" +
                             std::to_string(id) + ".json";
    // The replay first, right after the plain run it is subtracted from:
    // host speed drifts over seconds.
    s.replay = opalbench::replay_scenario(w.complexes[s.sc->complex], s.sc->p,
                                          s.sc->cfg, id, participant_id(),
                                          spans);
    if (!physics_identical(s.replay.physics, s.physics)) {
      fail(s, "replay physics differ from the run's");
    }
    const std::int64_t t0 = now_ns();
    const opal::ParallelRunResult r = run_parallel(*s.sc, path, s.traced_s);
    spans.push_back({t0, now_ns(), id, participant_id(), Layer::kTracedRun});
    // Writing the snapshot must not perturb the run.
    if (metrics_digest(r.metrics) != s.digest ||
        !physics_identical(r.physics, s.physics)) {
      fail(s, "run with a metrics snapshot differs from the plain run");
    }
    s.snapshot = read_snapshot(path);
    std::filesystem::remove(path);
  }

  static std::map<std::string, double> read_snapshot(const std::string& path) {
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    std::map<std::string, double> out;
    for (const char* key :
         {"engine.events_processed", "engine.pool.hit_rate",
          "pvm.messages_sent", "pvm.bytes_sent", "rpc.retries",
          "rpc.timeouts"}) {
      const std::string needle = std::string("\"") + key + "\": ";
      const std::size_t at = text.find(needle);
      if (at == std::string::npos) {
        throw std::runtime_error(std::string("metrics snapshot lacks ") + key);
      }
      out[key] = std::strtod(text.c_str() + at + needle.size(), nullptr);
    }
    return out;
  }

  /// Runs every scenario of `list` once, on the pool when there is one.
  /// Each pool task runs its scenario plain and, with --trace 1, then
  /// traced and replayed right after it on the same thread.
  std::vector<Sample> run_batch(const std::vector<Scenario>& list,
                                BatchStats& stats) {
    std::vector<Sample> out(list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      out[i].index = i;
      out[i].sc = &list[i];
    }
    const std::uint64_t steals0 =
        pool != nullptr ? pool->dispatch_stats().steals : 0;
    const std::int64_t t0 = now_ns();
    auto body = [&](std::size_t i) {
      Sample& s = out[i];
      const std::uint32_t id = next_scenario.fetch_add(1);
      const std::int64_t a = now_ns();
      const opal::ParallelRunResult r = run_parallel(*s.sc, "", s.host_s);
      s.physics = r.physics;
      s.metrics = r.metrics;
      s.digest = metrics_digest(r.metrics);
      if (args.trace) {
        std::vector<opalbench::Span> spans;
        spans.push_back({a, now_ns(), id, participant_id(), Layer::kRun});
        run_traced(s, id, spans);
        log.append(spans);
      }
      s.task_s = static_cast<double>(now_ns() - a) * 1e-9;
    };
    if (pool != nullptr) {
      util::parallel_for_indexed(*pool, list.size(), body);
    } else {
      for (std::size_t i = 0; i < list.size(); ++i) body(i);
    }
    stats.wall_s += static_cast<double>(now_ns() - t0) * 1e-9;
    for (const Sample& s : out) stats.busy_s += s.task_s;
    if (pool != nullptr) stats.steals += pool->dispatch_stats().steals - steals0;
    return out;
  }
};

// ---------------------------------------------------------------- output --

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct LayerMetric {
  std::string name;
  double value;
  std::string unit;
};

/// Sums over the traced scenarios of a run.
struct TraceTotals {
  std::size_t scenarios = 0;
  std::array<double, opalbench::kLayers> layer_s{};
  double opal_s = 0.0;   ///< the kOpalLayers part of layer_s
  double plain_s = 0.0;  ///< plain runs
  double traced_s = 0.0;
  opalbench::ReplayCounters counters;
  double rounds = 0.0;  ///< Sciddle call_all rounds
  std::map<std::string, double> snapshot;
};

TraceTotals trace_totals(const std::vector<std::vector<Sample>>& batches) {
  TraceTotals t;
  for (const auto& batch : batches) {
    for (const Sample& s : batch) {
      ++t.scenarios;
      for (std::size_t l = 0; l < opalbench::kLayers; ++l) {
        t.layer_s[l] += s.replay.layer_s[l];
        if (l < opalbench::kOpalLayers) t.opal_s += s.replay.layer_s[l];
      }
      const opalbench::ReplayCounters& rc = s.replay.counters;
      t.counters.domain_pairs += rc.domain_pairs;
      t.counters.domain_bytes += rc.domain_bytes;
      t.counters.update_calls += rc.update_calls;
      t.counters.pairs_checked += rc.pairs_checked;
      t.counters.cutoff_updates += rc.cutoff_updates;
      t.counters.cell_updates += rc.cell_updates;
      t.counters.nonbonded_pairs += rc.nonbonded_pairs;
      t.plain_s += s.host_s;
      t.traced_s += s.traced_s;
      for (const auto& [key, v] : s.snapshot) t.snapshot[key] += v;
      // One "update" round per list rebuild plus one "nbint" round per step.
      t.rounds += static_cast<double>(s.metrics.list_updates) + s.sc->cfg.steps;
    }
  }
  return t;
}

/// Per-layer metrics of a traced run: means per traced scenario, except the
/// ratios and the pool figures.
std::vector<LayerMetric> layer_metrics(const TraceTotals& t,
                                       const BatchStats& pool_stats,
                                       unsigned participants,
                                       double calibrate_s, double predict_s) {
  const double k = std::max<double>(1.0, static_cast<double>(t.scenarios));
  auto L = [&](Layer l) { return t.layer_s[static_cast<std::size_t>(l)]; };
  auto per = [&](std::uint64_t count) { return static_cast<double>(count) / k; };
  auto snap = [&](const char* key) {
    const auto it = t.snapshot.find(key);
    return it == t.snapshot.end() ? 0.0 : it->second;
  };
  const opalbench::ReplayCounters& c = t.counters;
  const double retries = snap("rpc.retries");
  const double wall_all = participants * pool_stats.wall_s;
  return {
      {"scenario.host_s", t.plain_s / k, "s"},
      {"opal.build_domains.s", L(Layer::kBuildDomains) / k, "s"},
      {"opal.build_domains.pairs", per(c.domain_pairs), "count"},
      {"opal.build_domains.mb", per(c.domain_bytes) / 1e6, "MB"},
      {"opal.update.s", L(Layer::kUpdate) / k, "s"},
      {"opal.update.calls", per(c.update_calls), "count"},
      {"opal.update.pairs_checked", per(c.pairs_checked), "count"},
      {"opal.update.cells_frac",
       c.cutoff_updates == 0 ? 0.0
                             : static_cast<double>(c.cell_updates) /
                                   static_cast<double>(c.cutoff_updates),
       "frac"},
      {"opal.nonbonded.s", L(Layer::kNonbonded) / k, "s"},
      {"opal.nonbonded.pairs", per(c.nonbonded_pairs), "count"},
      {"opal.nonbonded.ns_per_pair",
       c.nonbonded_pairs == 0 ? 0.0
                              : L(Layer::kNonbonded) * 1e9 /
                                    static_cast<double>(c.nonbonded_pairs),
       "ns"},
      {"opal.coords.s", L(Layer::kCoords) / k, "s"},
      {"opal.bonded.s", L(Layer::kBonded) / k, "s"},
      {"opal.integrate.s", L(Layer::kIntegrate) / k, "s"},
      {"stack.residual.s", (t.plain_s - t.opal_s) / k, "s"},
      {"sim.events", snap("engine.events_processed") / k, "count"},
      {"sim.events_per_s",
       t.plain_s > 0.0 ? snap("engine.events_processed") / t.plain_s : 0.0,
       "1/s"},
      {"sim.pool.hit_rate", snap("engine.pool.hit_rate") / k, "frac"},
      {"pvm.messages", snap("pvm.messages_sent") / k, "count"},
      {"pvm.mb_sent", snap("pvm.bytes_sent") / 1e6 / k, "MB"},
      {"sciddle.retries", retries / k, "count"},
      {"sciddle.timeouts", snap("rpc.timeouts") / k, "count"},
      {"sciddle.useful_frac", t.rounds / (t.rounds + retries), "frac"},
      {"util.pool.busy_frac",
       wall_all > 0.0 ? pool_stats.busy_s / wall_all : 0.0, "frac"},
      {"util.pool.idle_s", wall_all - pool_stats.busy_s, "s"},
      {"util.pool.steals", static_cast<double>(pool_stats.steals), "count"},
      {"model.calibrate.s", calibrate_s, "s"},
      {"model.predict.s", predict_s, "s"},
      {"trace.overhead_frac",
       t.plain_s > 0.0 ? t.traced_s / t.plain_s - 1.0 : 0.0, "frac"},
  };
}

std::string selftime_table(const TraceTotals& t, const opalbench::SpanLog& log) {
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-24s %14s %9s\n", "layer", "self [s]",
                "share");
  os << buf;
  auto row = [&](const char* name, double v) {
    std::snprintf(buf, sizeof(buf), "%-24s %14.6f %8.2f%%\n", name, v,
                  t.plain_s > 0.0 ? 100.0 * v / t.plain_s : 0.0);
    os << buf;
  };
  for (std::size_t l = 0; l < opalbench::kOpalLayers; ++l) {
    row(opalbench::layer_name(static_cast<Layer>(l)), t.layer_s[l]);
  }
  row("stack.residual", t.plain_s - t.opal_s);
  row("scenario (plain run)", t.plain_s);
  std::snprintf(
      buf, sizeof(buf),
      "\n%zu traced scenarios; replay glue (reduction) self time %.6f s; "
      "spans kept %zu, dropped %llu\n",
      t.scenarios, t.layer_s[static_cast<std::size_t>(Layer::kScenario)] - t.opal_s,
      log.kept(), static_cast<unsigned long long>(log.dropped()));
  os << buf;
  return os.str();
}

int run(const Args& args) {
  const unsigned nproc = host_cpus();

  // --- set-up: generate the molecules, start the pool; several times, so
  // the median is steady.  The last set-up is the one used.
  std::vector<double> setup_s;
  std::optional<Workload> w;
  std::unique_ptr<util::ThreadPool> pool;
  unsigned participants = 1;
  const int setups = args.smoke ? 1 : 25;
  for (int k = 0; k < setups; ++k) {
    pool.reset();
    const std::int64_t t0 = now_ns();
    w.emplace(make_workload(args));
    // ThreadPool(n) runs n workers plus the caller; with fewer than three
    // CPUs a pool would oversubscribe, so the sweep runs inline.
    if (w->pooled && nproc >= 3) {
      pool = std::make_unique<util::ThreadPool>(nproc - 1);
      participants = pool->size() + 1;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  std::filesystem::create_directories(args.out_dir + "/tmp");
  opalbench::SpanLog log(args.trace ? 100000 : 0);
  Runner runner{args, *w, pool.get(), log, {0}, {}, {}};

  // --- measured section (closed loop).
  std::vector<std::vector<Sample>> batches;
  BatchStats stats;
  const std::int64_t start = now_ns();
  const auto deadline =
      start + static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<Scenario> loop = w->loop;
  if (!w->prologue.empty()) {
    batches.push_back(runner.run_batch(w->prologue, stats));
    // middleware_ft: size the retry timeout from the clean run's step time.
    const Sample& legacy = batches.back().front();
    for (Scenario& sc : loop) {
      const double t = 2.0 * legacy.metrics.wall / sc.cfg.steps;
      sc.mw.retry.timeout_s = t;
      sc.mw.retry.heartbeat_timeout_s = t;
    }
  }
  // Another batch starts only if it is expected to end no later than half
  // a batch past the deadline, so a run lasts about --seconds even when a
  // batch (a whole calib84 sweep) is long.
  for (std::int64_t batch_ns = 0;;) {
    const std::int64_t t0 = now_ns();
    batches.push_back(runner.run_batch(loop, stats));
    const std::int64_t t1 = now_ns();
    batch_ns = std::max(batch_ns, t1 - t0);
    if (t1 + batch_ns / 2 > deadline) break;
  }
  const double wall_s = static_cast<double>(now_ns() - start) * 1e-9;

  // --- oracles.
  const std::vector<Sample>& first = batches[w->prologue.empty() ? 0 : 1];
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (Sample& s : batches[b]) {
      // Determinism: every repeat of a scenario reproduces its first run.
      const bool in_loop = w->prologue.empty() || b > 0;
      if (in_loop && (s.digest != first[s.index].digest ||
                      !physics_identical(s.physics, first[s.index].physics))) {
        runner.fail(s, "repeat differs from the first run");
      }
    }
  }
  if (args.workload == "calib84") {
    // Physics agrees across p = 1..7 within each (size, cut-off, update)
    // cell.
    for (auto& batch : batches) {
      std::map<int, const Sample*> p1;
      for (const Sample& s : batch) {
        if (s.sc->p == 1) p1[s.sc->cell] = &s;
      }
      for (Sample& s : batch) {
        if (!physics_close(s.physics, p1.at(s.sc->cell)->physics)) {
          runner.fail(s, "physics differ from p = 1 of the same cell");
        }
      }
    }
  } else if (args.workload == "large_nocut_p7") {
    // The serial Opal is the reference for the parallel one.
    const Scenario& sc = w->loop.front();
    opal::SerialOpal serial(w->complexes[sc.complex], sc.cfg);
    const opal::SimResult ref = serial.run();
    for (auto& batch : batches) {
      for (Sample& s : batch) {
        if (!physics_close(s.physics, ref)) {
          runner.fail(s, "physics differ from the serial Opal");
        }
      }
    }
  } else {
    // Fault-tolerant physics under loss equal the legacy run's bit for bit.
    const Sample& legacy = batches.front().front();
    for (std::size_t b = 1; b < batches.size(); ++b) {
      for (Sample& s : batches[b]) {
        if (!physics_identical(s.physics, legacy.physics)) {
          runner.fail(s, "fault-tolerant physics differ from the legacy run");
        }
        if (s.metrics.retries == 0 || s.metrics.msgs_dropped == 0) {
          runner.fail(s, "no message was lost: the fault path went unused");
        }
      }
    }
  }

  // --- model layer.
  double calibrate_s = 0.0, predict_s = 0.0;
  std::string fit_json = "null";
  {
    // The neighbour count behind AppParams is O(n^2): one per molecule
    // and cut-off, not per scenario.
    std::map<std::pair<std::size_t, double>, model::AppParams> apps;
    std::vector<model::Observation> obs;
    for (const Sample& s : first) {
      const auto key = std::make_pair(s.sc->complex, s.sc->cfg.cutoff);
      auto it = apps.find(key);
      if (it == apps.end()) {
        it = apps.emplace(key, model::app_params_for(
                                   w->complexes[s.sc->complex], s.sc->cfg, 1))
                 .first;
      }
      model::AppParams app = it->second;
      app.s = s.sc->cfg.steps;
      app.p = s.sc->p;
      app.u = s.sc->cfg.u();
      obs.push_back({app, s.metrics});
    }
    model::ModelParams params;
    std::int64_t t0 = now_ns();
    if (args.workload == "calib84") {
      const model::CalibrationResult fit = model::calibrate(obs);
      calibrate_s = static_cast<double>(now_ns() - t0) * 1e-9;
      params = fit.params;
      const util::FitQuality& q = fit.fit_total;
      fit_json = "{\"a1_MBps\": " + num(fit.params.a1 / 1e6) +
                 ", \"b1_s\": " + num(fit.params.b1) +
                 ", \"a2_s\": " + num(fit.params.a2) +
                 ", \"a3_s\": " + num(fit.params.a3) +
                 ", \"b5_s\": " + num(fit.params.b5) +
                 ", \"total_mean_rel_err\": " + num(q.mean_abs_rel_err) +
                 ", \"total_max_rel_err\": " + num(q.max_abs_rel_err) +
                 ", \"total_r2\": " + num(q.r_squared) + "}";
    } else {
      // No design to fit: the model's parameters come from the datasheet.
      params = model::theoretical_params(first.front().sc->platform);
      calibrate_s = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    double sink = 0.0;
    t0 = now_ns();
    for (const model::Observation& o : obs) {
      sink += model::predict_total(params, o.app);
    }
    predict_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (!(sink > 0.0)) throw std::runtime_error("model predicted no time");
  }

  // --- report.
  std::ostringstream samples, names, oks, digests;
  std::map<std::string, std::string> first_digest;
  for (const auto& batch : batches) {
    for (const Sample& s : batch) {
      const char* sep = samples.tellp() > 0 ? ", " : "";
      samples << sep << num(s.host_s);
      names << sep << json_str(s.sc->name);
      oks << sep << (s.ok ? "true" : "false");
      first_digest.emplace(s.sc->name, s.digest);
    }
  }
  for (const auto& [name, d] : first_digest) {
    digests << (digests.tellp() > 0 ? ", " : "") << json_str(name) << ": "
            << json_str(d);
  }
  std::ostringstream setups_json;
  for (const double v : setup_s) {
    setups_json << (setups_json.tellp() > 0 ? ", " : "") << num(v);
  }
  std::ostringstream failures;
  for (const std::string& f : runner.failures) {
    failures << (failures.tellp() > 0 ? ", " : "") << json_str(f);
  }

  std::ostringstream layers;
  if (args.trace) {
    const std::string base = args.out_dir + "/" + args.workload + "-s" +
                             std::to_string(args.seed);
    const TraceTotals totals = trace_totals(batches);
    std::ofstream(base + ".host_trace.json") << log.to_chrome_json();
    std::ofstream(base + ".selftime.txt") << selftime_table(totals, log);
    for (const LayerMetric& m : layer_metrics(totals, stats, participants,
                                              calibrate_s, predict_s)) {
      layers << (layers.tellp() > 0 ? ", " : "") << json_str(m.name)
             << ": {\"value\": " << num(m.value)
             << ", \"unit\": " << json_str(m.unit) << "}";
    }
  }

  std::cout << "{\"workload\": " << json_str(args.workload)
            << ", \"seed\": " << args.seed
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"smoke\": " << (args.smoke ? "true" : "false")
            << ", \"stamp\": {\"nproc\": " << nproc
            << ", \"participants\": " << participants
            << ", \"compiler\": " << json_str(OPALBENCH_COMPILER)
            << ", \"build_type\": " << json_str(OPALBENCH_BUILD_TYPE)
            << ", \"arch\": " << json_str(OPALBENCH_ARCH) << "}"
            << ", \"setup_s\": [" << setups_json.str() << "]"
            << ", \"wall_s\": " << num(wall_s)
            << ", \"scenario_s\": [" << samples.str() << "]"
            << ", \"scenario\": [" << names.str() << "]"
            << ", \"ok\": [" << oks.str() << "]"
            << ", \"peak_rss_mb\": " << num(peak_rss_mb())
            << ", \"failures\": [" << failures.str() << "]"
            << ", \"digests\": {" << digests.str() << "}"
            << ", \"fit\": " << fit_json
            << ", \"layers\": {" << layers.str() << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold (up to 32 MiB) each time a large block
  // is freed, after which pair lists below it land on the heap and stay
  // resident: peak RSS then depends on allocation history, not on the live
  // data (a large_nocut_p7 run read 203 or 318 MB for the same scenarios).
  // Pinning the threshold at its default start value keeps every block of
  // 128 KiB or more in its own mapping, so ru_maxrss measures live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "opalbench: " << e.what() << "\n";
    return 2;
  }
}

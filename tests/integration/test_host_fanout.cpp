// Host-parallel nbint rounds must be invisible in every observable.  Each
// case runs twice: on the test thread, where a large round's server kernels
// fan out over a host pool, and inside a pooled sweep index, where the run
// keeps them inline.  Physics, RunMetrics, the metrics JSON, the trace and
// a mid-run checkpoint image must come out byte-identical; the host-only
// fan-out counter proves the two legs really took different paths, and the
// physics must match SerialOpal within the 1e-9 that test_parallel uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

#include "mach/platforms_db.hpp"
#include "opal/complex.hpp"
#include "opal/parallel.hpp"
#include "opal/serial.hpp"
#include "sim/fault.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;
using namespace opalsim;

// Whole-object compares below rely on these being plain runs of 8-byte
// fields.
static_assert(std::is_trivially_copyable_v<opal::SimResult>);
static_assert(std::is_trivially_copyable_v<opal::RunMetrics>);
static_assert(sizeof(opal::SimResult) % sizeof(double) == 0);
static_assert(sizeof(opal::RunMetrics) % sizeof(double) == 0);

constexpr int kServers = 5;
constexpr int kSteps = 5;
constexpr int kImageStep = 2;

/// Sets an environment variable for one scope, restoring the old value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// 800 centres: 319600 pairs per round without a cut-off, well above the
/// fan-out threshold (about 50k at 10 Angstrom, which is below it).
opal::MolecularComplex fanout_complex() {
  opal::SyntheticSpec spec;
  spec.name = "fanout";
  spec.n_solute = 300;
  spec.n_water = 500;
  return opal::make_synthetic_complex(spec);
}

/// The small complex (1500 centres) keeps ~107k pairs active at 10 A.
opal::MolecularComplex small_complex() { return opal::make_small_complex(); }

struct Case {
  opal::MolecularComplex (*molecule)() = fanout_complex;
  double cutoff = -1.0;
  int update_every = 1;
  bool faults = false;
};

opal::SimulationConfig base_config(const Case& c) {
  opal::SimulationConfig cfg;
  cfg.steps = kSteps;
  cfg.cutoff = c.cutoff;
  cfg.update_every = c.update_every;
  return cfg;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Outputs {
  opal::ParallelRunResult result;
  std::string trace;
  std::string metrics;
  std::string image;
};

class HostFanout : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("opalsim_host_fanout_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  Outputs run(const Case& c, const std::string& leg) const {
    opal::SimulationConfig cfg = base_config(c);
    cfg.trace_out = (dir_ / (leg + ".csv")).string();
    cfg.metrics_out = (dir_ / (leg + ".json")).string();
    cfg.checkpoint_out = (dir_ / (leg + ".ckpt")).string();
    cfg.checkpoint_at_step = kImageStep;
    mach::PlatformSpec platform = mach::fast_cops();
    sciddle::Options mw;
    if (c.faults) {
      sim::FaultSpec fault;
      fault.seed = 3;
      fault.drop_rate = 0.02;
      fault.duplicate_rate = 0.02;
      platform = mach::with_faults(platform, fault);
      cfg.kill_server = 2;
      cfg.kill_at_step = 3;
      mw.retry.enabled = true;
      mw.retry.timeout_s = 2.0;
      mw.retry.heartbeat_timeout_s = 2.0;
    }
    opal::ParallelOpal par(platform, c.molecule(), kServers, cfg, mw);
    Outputs out;
    out.result = par.run();
    out.trace = slurp(cfg.trace_out);
    out.metrics = slurp(cfg.metrics_out);
    out.image = slurp(cfg.checkpoint_out);
    return out;
  }

  /// Runs `c` on this thread (fan-out) and inside a pooled sweep index
  /// (inline), checks both legs byte for byte and returns the first.
  Outputs check_identical(const Case& c) const {
    // Four participants on any host shape, so leg (a) always fans out.
    ScopedEnv threads("OPALSIM_THREADS", "4");
    const Outputs fanned = run(c, "fanned");

    std::optional<Outputs> inline_run;
    util::ThreadPool pool(2);
    util::parallel_for_indexed(pool, 2, [&](std::size_t i) {
      if (i == 0) inline_run = run(c, "inline");
    });
    const Outputs& in = *inline_run;

    EXPECT_GT(fanned.result.host_fanout_rounds, 0u);
    EXPECT_EQ(in.result.host_fanout_rounds, 0u);

    EXPECT_EQ(std::memcmp(&fanned.result.physics, &in.result.physics,
                          sizeof(opal::SimResult)),
              0);
    EXPECT_EQ(std::memcmp(&fanned.result.metrics, &in.result.metrics,
                          sizeof(opal::RunMetrics)),
              0);
    EXPECT_EQ(fanned.result.server_busy, in.result.server_busy);
    EXPECT_EQ(fanned.result.server_counted_mflop,
              in.result.server_counted_mflop);
    EXPECT_FALSE(fanned.metrics.empty());
    EXPECT_EQ(fanned.metrics, in.metrics);
    EXPECT_FALSE(fanned.trace.empty());
    EXPECT_EQ(fanned.trace, in.trace);
    EXPECT_FALSE(fanned.image.empty());
    EXPECT_EQ(fanned.image, in.image);

    // Both legs go through the same memo, so a stale memo hit would be
    // byte-identical in both: the serial reference catches it.
    opal::SerialOpal serial(c.molecule(), base_config(c));
    const opal::SimResult want = serial.run();
    const opal::SimResult& got = fanned.result.physics;
    auto near = [](double x, double y) {
      const double scale = std::max({std::abs(x), std::abs(y), 1.0});
      return std::abs(x - y) <= 1e-9 * scale;
    };
    EXPECT_TRUE(near(got.evdw, want.evdw)) << got.evdw << " vs " << want.evdw;
    EXPECT_TRUE(near(got.ecoul, want.ecoul))
        << got.ecoul << " vs " << want.ecoul;
    EXPECT_TRUE(near(got.bonded.total(), want.bonded.total()));
    EXPECT_TRUE(near(got.temperature, want.temperature));
    EXPECT_TRUE(near(got.pressure, want.pressure));
    return fanned;
  }

  fs::path dir_;
};

TEST_F(HostFanout, NoCutoffFullUpdateIsByteIdentical) {
  check_identical(Case{fanout_complex, -1.0, 1, false});
}

TEST_F(HostFanout, CutoffPartialUpdateIsByteIdentical) {
  check_identical(Case{small_complex, 10.0, 3, false});
}

TEST_F(HostFanout, FailoverUnderLossAndDuplicationIsByteIdentical) {
  // Step 3 has no scheduled update, so the nbint round finds server 2 dead
  // and is re-issued at the same coordinates after failover.  With no
  // cut-off the forced update leaves active() alone: only adopt()'s
  // generation bump keeps the survivors from replaying their memo.
  const Case c{fanout_complex, -1.0, 2, true};
  const Outputs got = check_identical(c);
  EXPECT_EQ(got.result.metrics.servers_failed, 1u);
  EXPECT_EQ(got.result.metrics.failovers, 1u);
  EXPECT_GT(got.result.metrics.retries, 0u);
}

}  // namespace

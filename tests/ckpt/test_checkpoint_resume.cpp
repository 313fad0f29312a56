// Checkpoint/restart byte-identity oracle: a run checkpointed at a quiescent
// step boundary and resumed in a fresh process-equivalent (new engine, new
// task graph) must finish with bit-identical physics, byte-identical metrics
// JSON, and a trace that is exactly the golden trace's tail.
//
// The golden runs here carry the same checkpoint flags as the resumed runs,
// so both emit the checkpoint-stable metrics key set and the same kCkpt
// trace instants — any divergence is a replay bug, never a flag artifact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "mach/platforms_db.hpp"
#include "opal/pairs.hpp"
#include "opal/parallel.hpp"
#include "sim/fault.hpp"
#include "util/fatal.hpp"

namespace {

namespace fs = std::filesystem;
using opalsim::mach::PlatformSpec;
using opalsim::mach::with_faults;
using opalsim::opal::make_large_complex;
using opalsim::opal::make_medium_complex;
using opalsim::opal::MolecularComplex;
using opalsim::opal::ParallelOpal;
using opalsim::opal::ParallelRunResult;
using opalsim::opal::SimResult;
using opalsim::opal::SimulationConfig;
using opalsim::sim::FaultSpec;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

opalsim::ckpt::RunSnapshot decode_file(const std::string& path) {
  const std::string bytes = slurp(path);
  return opalsim::ckpt::decode(
      std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
}

/// Reference FNV-1a, independent of PackBuffer::checksum().
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

opalsim::sciddle::Options ft_middleware() {
  opalsim::sciddle::Options opts;
  opts.retry.enabled = true;
  opts.retry.timeout_s = 2.0;
  opts.retry.heartbeat_timeout_s = 2.0;
  return opts;
}

struct RunOutputs {
  ParallelRunResult result;
  std::string trace;
  std::string metrics;
};

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("opalsim_ckpt_resume_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    image_ = (dir_ / "run.ckpt").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs ParallelOpal with per-run trace/metrics outputs under dir_.
  RunOutputs run(SimulationConfig cfg, const PlatformSpec& platform,
                 const MolecularComplex& mc, int servers,
                 opalsim::sciddle::Options mw, const std::string& tag) {
    cfg.trace_out = (dir_ / (tag + ".csv")).string();
    cfg.metrics_out = (dir_ / (tag + ".json")).string();
    ParallelOpal par(platform, mc, servers, cfg, mw);
    RunOutputs out;
    out.result = par.run();
    out.trace = slurp(cfg.trace_out);
    out.metrics = slurp(cfg.metrics_out);
    return out;
  }

  /// The oracle: golden = uninterrupted run writing an image at
  /// `checkpoint_at_step`; resumed = fresh construction restoring that image.
  /// Physics bits, RunMetrics, metrics JSON bytes must be identical; the
  /// resumed trace must be exactly the golden trace's tail.
  void expect_resume_identical(SimulationConfig cfg,
                               const PlatformSpec& platform,
                               const MolecularComplex& mc, int servers,
                               opalsim::sciddle::Options mw) {
    cfg.checkpoint_out = image_;
    const RunOutputs golden = run(cfg, platform, mc, servers, mw, "golden");
    ASSERT_TRUE(fs::exists(image_)) << "no checkpoint image written";

    SimulationConfig rcfg = cfg;
    rcfg.resume_from = image_;
    const RunOutputs resumed = run(rcfg, platform, mc, servers, mw, "resume");

    expect_bitwise_equal(golden.result.physics, resumed.result.physics);
    expect_metrics_equal(golden.result, resumed.result);
    EXPECT_EQ(golden.metrics, resumed.metrics) << "metrics JSON diverged";
    expect_trace_tail(golden.trace, resumed.trace);
  }

  static void expect_bitwise_equal(const SimResult& a, const SimResult& b) {
    EXPECT_EQ(a.evdw, b.evdw);
    EXPECT_EQ(a.ecoul, b.ecoul);
    EXPECT_EQ(a.bonded.bond, b.bonded.bond);
    EXPECT_EQ(a.bonded.angle, b.bonded.angle);
    EXPECT_EQ(a.bonded.dihedral, b.bonded.dihedral);
    EXPECT_EQ(a.bonded.improper, b.bonded.improper);
    EXPECT_EQ(a.kinetic, b.kinetic);
    EXPECT_EQ(a.temperature, b.temperature);
    EXPECT_EQ(a.pressure, b.pressure);
    EXPECT_EQ(a.volume, b.volume);
  }

  static void expect_metrics_equal(const ParallelRunResult& a,
                                   const ParallelRunResult& b) {
    EXPECT_EQ(a.metrics.par_update, b.metrics.par_update);
    EXPECT_EQ(a.metrics.par_nbint, b.metrics.par_nbint);
    EXPECT_EQ(a.metrics.seq_comp, b.metrics.seq_comp);
    EXPECT_EQ(a.metrics.sync, b.metrics.sync);
    EXPECT_EQ(a.metrics.idle, b.metrics.idle);
    EXPECT_EQ(a.metrics.recovery, b.metrics.recovery);
    EXPECT_EQ(a.metrics.wall, b.metrics.wall);
    EXPECT_EQ(a.metrics.pairs_checked, b.metrics.pairs_checked);
    EXPECT_EQ(a.metrics.pairs_evaluated, b.metrics.pairs_evaluated);
    EXPECT_EQ(a.metrics.list_updates, b.metrics.list_updates);
    EXPECT_EQ(a.metrics.retries, b.metrics.retries);
    EXPECT_EQ(a.metrics.timeouts, b.metrics.timeouts);
    EXPECT_EQ(a.metrics.failovers, b.metrics.failovers);
    EXPECT_EQ(a.metrics.servers_failed, b.metrics.servers_failed);
    EXPECT_EQ(a.metrics.msgs_dropped, b.metrics.msgs_dropped);
    EXPECT_EQ(a.metrics.msgs_duplicated, b.metrics.msgs_duplicated);
    EXPECT_EQ(a.metrics.msgs_corrupted, b.metrics.msgs_corrupted);
    EXPECT_EQ(a.server_busy, b.server_busy);
    EXPECT_EQ(a.server_counted_mflop, b.server_counted_mflop);
  }

  /// The resumed trace (header + tail rows) must match the golden trace's
  /// header and final rows byte for byte — same events, same virtual times,
  /// same sequence numbers.
  static void expect_trace_tail(const std::string& golden,
                                const std::string& resumed) {
    const std::vector<std::string> g = lines_of(golden);
    const std::vector<std::string> r = lines_of(resumed);
    ASSERT_GE(g.size(), 1u);
    ASSERT_GE(r.size(), 2u) << "resumed trace has no data rows";
    EXPECT_EQ(g[0], r[0]) << "CSV header diverged";
    ASSERT_LE(r.size(), g.size()) << "resumed trace longer than golden";
    const std::size_t tail = r.size() - 1;  // data rows in the resumed trace
    for (std::size_t i = 0; i < tail; ++i) {
      ASSERT_EQ(g[g.size() - tail + i], r[i + 1])
          << "trace tail diverged at resumed row " << i;
    }
  }

  /// Writes `snap` to `path` as an image file.
  static void write_image(const opalsim::ckpt::RunSnapshot& snap,
                          const std::string& path) {
    const std::vector<std::uint8_t> bytes = opalsim::ckpt::encode(snap);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
  std::string image_;
};

TEST_F(CheckpointResumeTest, MediumFaultFreeByteIdentical) {
  SimulationConfig cfg;
  cfg.steps = 6;
  cfg.cutoff = 10.0;
  cfg.update_every = 2;
  cfg.checkpoint_at_step = 3;
  expect_resume_identical(cfg, opalsim::mach::fast_cops(),
                          make_medium_complex(), 4, {});
}

TEST_F(CheckpointResumeTest, MediumFaultProfileByteIdentical) {
  // Message loss + duplication before AND after the checkpoint, plus a
  // server killed after it: the resumed run must replay the identical fault
  // decisions (all three RNG streams restored mid-sequence).
  SimulationConfig cfg;
  cfg.steps = 8;
  cfg.cutoff = 10.0;
  cfg.update_every = 2;
  cfg.checkpoint_at_step = 3;
  cfg.kill_server = 2;
  cfg.kill_at_step = 5;
  FaultSpec fault;
  fault.seed = 7;
  fault.drop_rate = 0.02;
  fault.duplicate_rate = 0.02;
  expect_resume_identical(cfg,
                          with_faults(opalsim::mach::fast_cops(), fault),
                          make_medium_complex(), 4, ft_middleware());
}

TEST_F(CheckpointResumeTest, ResumeAfterNodeKilledBeforeFirstCheckpoint) {
  // The server dies before the image is taken: the snapshot carries a dead
  // failure-detector entry, a grown survivor assignment and a dynamic node
  // fault.  The resumed run must not resurrect or re-kill it.
  SimulationConfig cfg;
  cfg.steps = 7;
  cfg.cutoff = 10.0;
  cfg.update_every = 2;
  cfg.kill_server = 1;
  cfg.kill_at_step = 1;
  cfg.checkpoint_at_step = 4;
  expect_resume_identical(cfg, opalsim::mach::fast_cops(),
                          make_medium_complex(), 4, ft_middleware());
}

TEST_F(CheckpointResumeTest, LargeComplexByteIdentical) {
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = 8.0;
  cfg.update_every = 2;
  cfg.checkpoint_at_step = 2;
  expect_resume_identical(cfg, opalsim::mach::fast_cops(),
                          make_large_complex(), 4, {});
}

TEST_F(CheckpointResumeTest, PeriodicCheckpointsUnderDuplicationByteIdentical) {
  // Every boundary is a checkpoint candidate; heavy duplication makes
  // stale in-flight transfers (and hence deferrals) likely.  Resume from
  // whatever image survived last.
  SimulationConfig cfg;
  cfg.steps = 6;
  cfg.cutoff = 10.0;
  cfg.update_every = 2;
  cfg.checkpoint_every_steps = 1;
  FaultSpec fault;
  fault.seed = 11;
  fault.duplicate_rate = 0.08;
  expect_resume_identical(cfg,
                          with_faults(opalsim::mach::fast_cops(), fault),
                          make_medium_complex(), 3, ft_middleware());
}

TEST_F(CheckpointResumeTest, MinimizationModeByteIdentical) {
  // The minimizer's adaptive state (step size, previous energy/position)
  // rides in the image.
  SimulationConfig cfg;
  cfg.steps = 6;
  cfg.cutoff = 10.0;
  cfg.mode = opalsim::opal::RunMode::Minimization;
  cfg.checkpoint_at_step = 3;
  expect_resume_identical(cfg, opalsim::mach::fast_cops(),
                          make_medium_complex(), 2, {});
}

TEST_F(CheckpointResumeTest, CheckpointStableMetricsKeySet) {
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = 10.0;
  cfg.checkpoint_at_step = 2;
  cfg.checkpoint_out = image_;
  const RunOutputs out =
      run(cfg, opalsim::mach::fast_cops(), make_medium_complex(), 2, {}, "g");
  EXPECT_NE(out.metrics.find("ckpt.images_written"), std::string::npos);
  EXPECT_NE(out.metrics.find("ckpt.bytes_written"), std::string::npos);
  EXPECT_NE(out.metrics.find("ckpt.deferred"), std::string::npos);
  // Process-lifetime pool stats cannot survive a resume: omitted.
  EXPECT_EQ(out.metrics.find("engine.pool."), std::string::npos);
}

TEST_F(CheckpointResumeTest, EnvKnobEnablesCheckpointing) {
  ::setenv("OPALSIM_CHECKPOINT", image_.c_str(), 1);
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = 10.0;
  cfg.checkpoint_at_step = 2;
  ParallelOpal par(opalsim::mach::fast_cops(), make_medium_complex(), 2, cfg);
  (void)par.run();
  ::unsetenv("OPALSIM_CHECKPOINT");
  EXPECT_TRUE(fs::exists(image_));
}

TEST_F(CheckpointResumeTest, FingerprintMismatchRefusesResume) {
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = 10.0;
  cfg.checkpoint_at_step = 2;
  cfg.checkpoint_out = image_;
  ParallelOpal par(opalsim::mach::fast_cops(), make_medium_complex(), 2, cfg);
  (void)par.run();

  SimulationConfig other = cfg;
  other.resume_from = image_;
  other.steps = 5;  // different run identity
  ParallelOpal bad(opalsim::mach::fast_cops(), make_medium_complex(), 2,
                   other);
  try {
    (void)bad.run();
    FAIL() << "resume accepted a foreign checkpoint";
  } catch (const opalsim::util::FatalError& e) {
    EXPECT_EQ(e.subsystem(), "ckpt");
    EXPECT_NE(std::string(e.what()).find("different run configuration"),
              std::string::npos);
  }
}

// An image whose pair arrays break i < j < n must be refused on resume,
// never read out of bounds by the kernel or narrowed into wrong pairs.
TEST_F(CheckpointResumeTest, RefusesPairsOutsideTheComplex) {
  opalsim::opal::SyntheticSpec spec;
  spec.n_solute = 20;
  spec.n_water = 40;
  const MolecularComplex mc = opalsim::opal::make_synthetic_complex(spec);
  const auto n = static_cast<std::uint32_t>(mc.n());
  SimulationConfig cfg;
  cfg.steps = 4;
  cfg.cutoff = 6.0;
  cfg.checkpoint_at_step = 2;
  cfg.checkpoint_out = image_;
  const opalsim::sciddle::Options mw = ft_middleware();
  ParallelOpal golden(opalsim::mach::fast_cops(), mc, 3, cfg, mw);
  (void)golden.run();
  const opalsim::ckpt::RunSnapshot good = decode_file(image_);
  ASSERT_FALSE(good.servers.at(1).active.empty());
  ASSERT_FALSE(good.assignment.at(0).empty());

  struct Breakage {
    const char* name;
    const char* message;  ///< names the refused array
    void (*apply)(opalsim::ckpt::RunSnapshot&, std::uint32_t n);
  };
  const Breakage breakages[] = {
      {"domain j = n", "bad checkpoint image: server 0 domain pair",
       [](opalsim::ckpt::RunSnapshot& s, std::uint32_t n_) {
         s.servers.at(0).domain.back() = n_;
       }},
      {"odd-length active list",
       "bad checkpoint image: server 1 active list has an odd-length",
       [](opalsim::ckpt::RunSnapshot& s, std::uint32_t) {
         s.servers.at(1).active.pop_back();
       }},
      {"assignment i = j", "bad checkpoint image: assignment 0 pair 0",
       [](opalsim::ckpt::RunSnapshot& s, std::uint32_t) {
         s.assignment.at(0)[0] = s.assignment.at(0)[1];
       }},
  };
  for (const Breakage& b : breakages) {
    SCOPED_TRACE(b.name);
    opalsim::ckpt::RunSnapshot bad = good;
    b.apply(bad, n);
    const std::string path = (dir_ / "bad.ckpt").string();
    {
      const std::vector<std::uint8_t> bytes = opalsim::ckpt::encode(bad);
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    SimulationConfig rcfg = cfg;
    rcfg.checkpoint_out.clear();
    rcfg.resume_from = path;
    ParallelOpal resumed(opalsim::mach::fast_cops(), mc, 3, rcfg, mw);
    try {
      (void)resumed.run();
      ADD_FAILURE() << "resume accepted a bad image";
    } catch (const opalsim::util::FatalError& e) {
      EXPECT_EQ(e.subsystem(), "ckpt");
      EXPECT_NE(std::string(e.what()).find(b.message), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(CheckpointResumeTest, CorruptedResidueStampsSentChecksums) {
  // Payload corruption plus duplication, with a retry timeout far below the
  // step time so retransmitted replies pile up as mailbox residue.  Seed 1
  // leaves three items at the step-3 boundary, one of them corrupted.
  SimulationConfig cfg;
  cfg.steps = 7;
  cfg.cutoff = 10.0;
  cfg.update_every = 2;
  cfg.checkpoint_every_steps = 3;  // images at steps 3 and 6
  FaultSpec fault;
  fault.seed = 1;
  fault.corrupt_rate = 0.2;
  fault.duplicate_rate = 0.05;
  opalsim::sciddle::Options mw = ft_middleware();
  mw.retry.timeout_s = 0.005;
  mw.retry.heartbeat_timeout_s = 0.005;
  const PlatformSpec platform =
      with_faults(opalsim::mach::fast_cops(), fault);
  const MolecularComplex mc = opalsim::opal::make_small_complex();

  cfg.checkpoint_out = image_;
  const RunOutputs golden = run(cfg, platform, mc, 4, mw, "golden");
  const std::string step3 = (dir_ / "step3.ckpt").string();
  fs::copy_file(image_ + ".prev", step3);

  // Every stored checksum is the FNV-1a of the body as sent: a clean item's
  // raw bytes still hash to it, a corrupted item's no longer do.
  std::size_t corrupted = 0, clean = 0;
  for (const std::string& path : {step3, image_}) {
    const opalsim::ckpt::RunSnapshot s = decode_file(path);
    EXPECT_EQ(s.step, path == step3 ? 3u : 6u);
    for (const auto& mailbox : s.mailboxes) {
      for (const opalsim::ckpt::MailboxItemSnap& mi : mailbox) {
        EXPECT_NE(mi.checksum, 0u) << path << " seq " << mi.seq;
        EXPECT_EQ(mi.corrupted, mi.checksum != fnv1a(mi.raw))
            << path << " seq " << mi.seq;
        ++(mi.corrupted ? corrupted : clean);
      }
    }
  }
  ASSERT_GE(corrupted, 1u) << "no corrupted residue: the test is vacuous";
  ASSERT_GE(clean, 1u) << "no clean residue: the test is vacuous";

  // Capture -> resume -> capture: the resumed run's step-6 image equals the
  // uninterrupted run's byte for byte.
  SimulationConfig rcfg = cfg;
  rcfg.resume_from = step3;
  rcfg.checkpoint_out = (dir_ / "resumed.ckpt").string();
  const RunOutputs resumed = run(rcfg, platform, mc, 4, mw, "resume");
  EXPECT_EQ(slurp(rcfg.checkpoint_out), slurp(image_))
      << "step-6 image diverged after resume";
  expect_bitwise_equal(golden.result.physics, resumed.result.physics);
  EXPECT_EQ(golden.metrics, resumed.metrics);
}

// A cut-off run lists no server's own pairs, yet its images must: each
// server's domain array is its build_domains list followed by the pairs it
// adopted.  Captured after a failover, resumed, and refused when the own
// prefix is tampered with.
TEST_F(CheckpointResumeTest, SharedListImageListsOwnPairsAndAdoptedTail) {
  opalsim::opal::SyntheticSpec spec;
  spec.n_solute = 100;
  spec.n_water = 200;
  const MolecularComplex mc = opalsim::opal::make_synthetic_complex(spec);
  const auto n = static_cast<std::uint32_t>(mc.n());
  constexpr int kServers = 4;
  constexpr int kDead = 1;
  SimulationConfig cfg;
  cfg.steps = 6;
  cfg.cutoff = 8.0;
  cfg.update_every = 1;
  cfg.strategy = opalsim::opal::DistributionStrategy::PseudoRandomUniform;
  cfg.kill_server = kDead;
  cfg.kill_at_step = 1;
  cfg.checkpoint_at_step = 3;
  ASSERT_TRUE(opalsim::opal::shared_list_enabled(cfg.cutoff, cfg.pair_path, mc.n()));
  const opalsim::sciddle::Options mw = ft_middleware();
  const PlatformSpec platform = opalsim::mach::fast_cops();
  expect_resume_identical(cfg, platform, mc, kServers, mw);

  // Expected domains: own lists, plus the dead server's pairs dealt
  // round-robin over the survivors (the client's failover rule).
  auto own = opalsim::opal::build_domains(n, kServers, cfg.strategy, cfg.seed);
  std::vector<std::vector<opalsim::opal::PairIdx>> expected = own;
  const std::vector<int> survivors = {0, 2, 3};
  for (std::size_t k = 0; k < own[kDead].size(); ++k) {
    expected[static_cast<std::size_t>(survivors[k % survivors.size()])]
        .push_back(own[kDead][k]);
  }
  const opalsim::ckpt::RunSnapshot good = decode_file(image_);
  ASSERT_EQ(good.failover_epoch, 1u) << "the image predates the failover";
  ASSERT_EQ(good.servers.size(), static_cast<std::size_t>(kServers));
  for (int s = 0; s < kServers; ++s) {
    SCOPED_TRACE("server " + std::to_string(s));
    std::vector<std::uint32_t> flat;
    for (const opalsim::opal::PairIdx& pr : expected[s]) {
      flat.push_back(pr.i);
      flat.push_back(pr.j);
    }
    EXPECT_EQ(good.servers[s].domain, flat);
  }
  ASSERT_GT(expected[0].size(), own[0].size()) << "server 0 adopted nothing";

  struct Tamper {
    const char* name;
    const char* message;
    void (*apply)(opalsim::ckpt::RunSnapshot&);
  };
  const Tamper tampers[] = {
      {"own pairs swapped", "server 0 domain own pair 1 is out of lex order",
       [](opalsim::ckpt::RunSnapshot& s) {
         auto& d = s.servers.at(0).domain;
         std::swap(d[0], d[2]);
         std::swap(d[1], d[3]);
       }},
      {"foreign pair in the prefix", "server 2 domain own pair 0",
       [](opalsim::ckpt::RunSnapshot& s) {
         // Server 0's first own pair heads server 2's list instead.
         auto& d = s.servers.at(2).domain;
         const auto& d0 = s.servers.at(0).domain;
         d[0] = d0[0];
         d[1] = d0[1];
       }},
      {"prefix cut short", "server 3 domain holds",
       [](opalsim::ckpt::RunSnapshot& s) {
         auto& d = s.servers.at(3).domain;
         d.resize(4);
       }},
  };
  for (const Tamper& t : tampers) {
    SCOPED_TRACE(t.name);
    opalsim::ckpt::RunSnapshot bad = good;
    t.apply(bad);
    const std::string path = (dir_ / "tampered.ckpt").string();
    write_image(bad, path);
    SimulationConfig rcfg = cfg;
    rcfg.resume_from = path;
    ParallelOpal resumed(platform, mc, kServers, rcfg, mw);
    try {
      (void)resumed.run();
      ADD_FAILURE() << "resume accepted a tampered own prefix";
    } catch (const opalsim::util::FatalError& e) {
      EXPECT_EQ(e.subsystem(), "ckpt");
      EXPECT_NE(std::string(e.what()).find(t.message), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace

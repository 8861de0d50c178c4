// The poison tripwire under recycled mirror slots. Accelerator kernels
// read only their mirrors, and every mirror byte a frame did not transfer
// must read DeviceMirror::kPoison — that is what makes a wrong Data Access
// interval fail the bit-exactness tests. The reference slot that leaves a
// mirror's window is re-poisoned and reused, often in the execution's
// shadow, and restage_mirror reuses the window's slots. These tests drive
// accelerator mirrors through randomized row distributions (and a fault
// retry that forces restage_mirror) and check, after every
// begin_frame_mirror, prestage_mirror and restage_mirror, that the CF plane
// and the fresh SF planes are poison byte for byte, borders included — the
// state a freshly allocated, poisoned slot has.
#include "core/coding_manager.hpp"
#include "core/data_access.hpp"
#include "core/real_backend.hpp"

#include "common/rng.hpp"
#include "platform/presets.hpp"
#include "video/metrics.hpp"
#include "video/sequence.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>

namespace feves {
namespace {

/// First byte of `plane` (borders and every padded row included) that is
/// not kPoison, as "row r, column c"; empty when the plane is all poison.
std::string first_non_poison(const PlaneU8& plane) {
  const int b = plane.border();
  for (int y = -b; y < plane.height() + b; ++y) {
    const u8* row = plane.row(y) - b;
    for (int x = 0; x < plane.width() + 2 * b; ++x) {
      if (row[x] != DeviceMirror::kPoison) {
        return "row " + std::to_string(y) + ", column " +
               std::to_string(x - b);
      }
    }
  }
  return {};
}

void expect_all_poison(const PlaneU8& plane, const std::string& what) {
  const std::string at = first_non_poison(plane);
  EXPECT_TRUE(at.empty()) << what << " holds data at " << at;
}

void expect_sf_poison(const DeviceMirror::RefMirror& slot,
                      const std::string& what) {
  for (int ph = 0; ph < kSubPel * kSubPel; ++ph) {
    expect_all_poison(slot.sf.phases[ph],
                      what + " SF phase " + std::to_string(ph));
  }
}

/// A random split of `rows` MB rows over `n` devices (zero rows allowed).
std::vector<int> random_split(Rng& rng, int rows, int n) {
  std::vector<int> out(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < rows; ++r) {
    ++out[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
  }
  return out;
}

Distribution random_distribution(Rng& rng, int rows, int n) {
  Distribution d;
  d.me = random_split(rng, rows, n);
  d.intp = random_split(rng, rows, n);
  d.sme = random_split(rng, rows, n);
  d.delta_m.assign(static_cast<std::size_t>(n), 0);
  d.delta_l.assign(static_cast<std::size_t>(n), 0);
  d.sigma.assign(static_cast<std::size_t>(n), 0);
  d.sigma_r.assign(static_cast<std::size_t>(n), 0);
  // σ over the whole range: some devices complete their SF in-frame, some
  // defer part of it into the next frame's carry transfer.
  for (int& s : d.sigma) s = static_cast<int>(rng.uniform_int(0, rows));
  d.rstar_device = static_cast<int>(rng.uniform_int(0, n - 1));
  return d;
}

/// Runs the collaborative inter-frame loop at the backend level — the
/// staging calls CollaborativeEncoder makes, around randomized
/// distributions — and checks the tripwire after every staging call.
void drive_mirrors(const PlatformTopology& topo, std::uint64_t seed) {
  EncoderConfig cfg;
  cfg.width = 64;
  cfg.height = 160;
  cfg.search_range = 8;
  cfg.num_ref_frames = 2;
  constexpr int kFrames = 10;
  constexpr int kFaultFrame = 5;
  const int n = topo.num_devices();
  const int rows = cfg.num_mb_rows();

  SyntheticConfig sc;
  sc.width = cfg.width;
  sc.height = cfg.height;
  sc.frames = kFrames;
  sc.num_objects = 3;
  sc.max_object_speed = 3.0;
  sc.seed = seed;
  SyntheticSequence seq(sc);
  std::vector<Frame420> frames;
  for (int f = 0; f < kFrames; ++f) {
    frames.emplace_back(cfg.width, cfg.height);
    ASSERT_TRUE(seq.read_frame(f, frames.back()));
  }

  RefList expected_refs(cfg.num_ref_frames);
  RefList refs(cfg.num_ref_frames);
  refs.push_front(encode_frame_reference(cfg, frames[0], refs, 0, nullptr));
  expected_refs.push_front(
      encode_frame_reference(cfg, frames[0], expected_refs, 0, nullptr));

  Rng rng(seed);
  DataAccessManagement dam(cfg, topo);
  std::vector<DeviceMirror> mirrors(static_cast<std::size_t>(n));
  std::vector<MirrorStage> staged(static_cast<std::size_t>(n));
  std::vector<std::set<const DeviceMirror::RefMirror*>> slots(
      static_cast<std::size_t>(n));
  EncodeJob job;
  std::unique_ptr<RefPicture> recycled;
  int rf_holder = topo.cpu_index();
  bool retried = false;

  auto borrow = [&] {
    std::vector<RefPicture*> out;
    for (int i = 0; i < refs.size(); ++i) out.push_back(&refs.ref(i));
    return out;
  };

  for (int frame = 1; frame < kFrames; ++frame) {
    SCOPED_TRACE("frame " + std::to_string(frame));
    const int active_refs = refs.size();
    const int next_refs = std::min(active_refs + 1, cfg.num_ref_frames);
    job.prepare(cfg, frames[frame], borrow(), frame, std::move(recycled));
    const Distribution dist = random_distribution(rng, rows, n);
    // Prestage (in the execution's shadow) on most frames, not all, so
    // begin_frame_mirror also takes its own recycling path.
    const bool prestage = rng.uniform_int(0, 3) != 0;

    for (int i = 0; i < n; ++i) {
      if (!topo.devices[i].is_accelerator()) continue;
      begin_frame_mirror(mirrors[i], cfg, active_refs, refs.ref(0).recon.y,
                         &staged[i]);
      const std::string dev = "device " + std::to_string(i) + " after begin";
      expect_all_poison(mirrors[i].cf_y, dev + ": CF");
      expect_sf_poison(*mirrors[i].refs.front(), dev + ": fresh");
      for (const auto& slot : mirrors[i].refs) slots[i].insert(slot.get());
    }

    for (int attempt = 0;; ++attempt) {
      ASSERT_LE(attempt, 1);
      std::vector<TransferPlan> plans =
          dam.plan_frame(dist, rf_holder, active_refs);
      RealBackend backend(job, mirrors, topo, dist.sme);
      FrameOpIds ids;
      const OpGraph graph = build_frame_graph(topo, dist, plans, backend, &ids);
      ExecuteOptions opts;
      if (frame == kFaultFrame && attempt == 0) {
        // A DMA fault on an accelerator that fetches the RF: the attempt
        // fails after other devices already wrote their mirrors.
        opts.faults.dev.resize(static_cast<std::size_t>(n));
        int victim = -1;
        for (int i = 0; i < n; ++i) {
          if (topo.devices[i].is_accelerator() && i != rf_holder) victim = i;
        }
        ASSERT_GE(victim, 0);
        opts.faults.dev[static_cast<std::size_t>(victim)].transfer_error =
            true;
      }
      std::optional<LaneRuntime::Batch> shadow;
      if (prestage) {
        shadow.emplace(lane_runtime(), 1, [&](int) {
          for (int i = 0; i < n; ++i) {
            if (topo.devices[i].is_accelerator()) {
              prestage_mirror(staged[i], cfg, next_refs);
            }
          }
        });
      }
      const ExecutionResult result = execute_real(graph, topo, opts);
      if (shadow.has_value()) shadow->join();
      for (int i = 0; i < n && prestage; ++i) {
        if (!topo.devices[i].is_accelerator()) continue;
        ASSERT_TRUE(staged[i].valid);
        expect_sf_poison(*staged[i].fresh, "device " + std::to_string(i) +
                                               " after prestage: fresh");
        slots[i].insert(staged[i].fresh.get());
      }
      if (result.ok()) break;

      ASSERT_EQ(frame, kFaultFrame) << "unexpected failure";
      retried = true;
      // The encoder's recovery: restage every mirror whole, re-plan from an
      // all-resident state and rebuild the job from untouched inputs.
      for (int i = 0; i < n; ++i) {
        if (!topo.devices[i].is_accelerator()) continue;
        restage_mirror(mirrors[i], cfg, active_refs, refs);
        const std::string dev =
            "device " + std::to_string(i) + " after restage";
        expect_all_poison(mirrors[i].cf_y, dev + ": CF");
        expect_sf_poison(*mirrors[i].refs.front(), dev + ": fresh");
        for (const auto& slot : mirrors[i].refs) slots[i].insert(slot.get());
      }
      dam.reset();
      job.prepare(cfg, frames[frame], borrow(), frame, std::move(job.recon));
    }

    // The harness must be the real loop: its output matches the reference.
    auto expected = encode_frame_reference(cfg, frames[frame], expected_refs,
                                           frame, nullptr);
    EXPECT_TRUE(frames_bit_exact(job.recon->recon, expected->recon));
    expected_refs.push_front(std::move(expected));
    rf_holder = dist.rstar_device;
    recycled = refs.push_front(std::move(job.recon));
  }

  EXPECT_TRUE(retried) << "the injected fault did not fail its attempt";

  // Steady state recycles: the window's slots plus the stage's one are
  // every reference slot a device ever had.
  for (int i = 0; i < n; ++i) {
    if (!topo.devices[i].is_accelerator()) continue;
    EXPECT_LE(slots[i].size(),
              static_cast<std::size_t>(cfg.num_ref_frames) + 1)
        << "device " << i << " allocated reference slots past steady state";
  }
}

TEST(MirrorTripwire, SysNffRandomDistributionsKeepPoisonExact) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    drive_mirrors(make_sys_nff(), seed);
  }
}

TEST(MirrorTripwire, PoolBigRandomDistributionsKeepPoisonExact) {
  drive_mirrors(make_pool_big(), 21);
}

}  // namespace
}  // namespace feves

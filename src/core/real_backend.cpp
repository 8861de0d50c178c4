#include "core/real_backend.hpp"

#include "codec/interpolate.hpp"
#include "platform/perf_model.hpp"
#include "sched/distribution.hpp"

#include <cstring>
#include <mutex>

namespace feves {

namespace {

/// Copies interior pixel rows [16*b, 16*e) from `src` to `dst`; both planes
/// must share geometry. `with_borders` also copies the horizontal border
/// span of each row (valid only when the source borders are extended).
void copy_pixel_rows(const PlaneU8& src, PlaneU8& dst, RowInterval mb_rows,
                     bool with_borders) {
  FEVES_CHECK(src.width() == dst.width() && src.height() == dst.height());
  FEVES_CHECK(!with_borders || src.border() == dst.border());
  const int y0 = mb_rows.begin * kMbSize;
  const int y1 = mb_rows.end * kMbSize;
  const int b = with_borders ? src.border() : 0;
  const std::size_t bytes = static_cast<std::size_t>(src.width() + 2 * b);
  for (int y = y0; y < y1; ++y) {
    std::memcpy(dst.row(y) - b, src.row(y) - b, bytes);
  }
}

/// Copies a whole plane including every border byte.
void copy_full_plane(const PlaneU8& src, PlaneU8& dst) {
  FEVES_CHECK(src.width() == dst.width() && src.height() == dst.height());
  FEVES_CHECK(src.border() == dst.border());
  const int b = src.border();
  const std::size_t bytes = static_cast<std::size_t>(src.width() + 2 * b);
  for (int y = -b; y < src.height() + b; ++y) {
    std::memcpy(dst.row(y) - b, src.row(y) - b, bytes);
  }
}

/// Copies motion-field rows [b, e) (all refs) between field vectors.
void copy_field_rows(const std::vector<MotionField>& src,
                     std::vector<MotionField>& dst, RowInterval rows,
                     int mb_width) {
  FEVES_CHECK(src.size() == dst.size());
  for (std::size_t r = 0; r < src.size(); ++r) {
    const std::size_t lo = static_cast<std::size_t>(rows.begin) * mb_width;
    const std::size_t hi = static_cast<std::size_t>(rows.end) * mb_width;
    FEVES_CHECK(hi <= src[r].size());
    std::copy(src[r].begin() + lo, src[r].begin() + hi, dst[r].begin() + lo);
  }
}

using RefMirror = DeviceMirror::RefMirror;

bool fits(const RefMirror& slot, const EncoderConfig& cfg, int border) {
  return slot.recon_y.width() == cfg.width &&
         slot.recon_y.height() == cfg.height &&
         slot.recon_y.border() == border;
}

/// A slot for the newest reference with every SF byte poisoned: `slot`
/// itself when its geometry fits, otherwise a new one. The SF planes are
/// poisoned whole: at recycle nearly every row of them holds data (σ and
/// the SF transfers cover most of a frame on every device).
std::unique_ptr<RefMirror> poisoned_slot(std::unique_ptr<RefMirror> slot,
                                         const EncoderConfig& cfg) {
  const int border = ref_border(cfg);
  if (slot == nullptr || !fits(*slot, cfg, border)) {
    slot = std::make_unique<RefMirror>(cfg.width, cfg.height, border);
  }
  for (auto& plane : slot->sf.phases) plane.fill(DeviceMirror::kPoison);
  return slot;
}

void reset_fields(std::vector<MotionField>& fields, const EncoderConfig& cfg,
                  int active_refs) {
  const std::size_t mbs = static_cast<std::size_t>(cfg.total_mbs());
  fields.resize(static_cast<std::size_t>(active_refs));
  for (MotionField& f : fields) f.assign(mbs, MbMotion{});
}

/// Poisons the CF plane whole, (re)allocating it on a geometry change.
void poison_cf(DeviceMirror& mirror, const EncoderConfig& cfg) {
  const int border = ref_border(cfg);
  if (mirror.cf_y.width() != cfg.width ||
      mirror.cf_y.height() != cfg.height || mirror.cf_y.border() != border) {
    mirror.cf_y = PlaneU8(cfg.width, cfg.height, border);
  }
  mirror.cf_y.fill(DeviceMirror::kPoison);
}

}  // namespace

void prestage_mirror(MirrorStage& stage, const EncoderConfig& cfg,
                     int active_refs) {
  // Recycle, in preference order: an unconsumed slot from a discarded
  // stage, or the spare that begin_frame_mirror trimmed off the mirror
  // window last frame.
  std::unique_ptr<RefMirror> slot = std::move(stage.fresh);
  if (slot == nullptr) slot = std::move(stage.spare);
  stage.fresh = poisoned_slot(std::move(slot), cfg);
  stage.spare = nullptr;
  reset_fields(stage.fields, cfg, active_refs);
  reset_fields(stage.refined, cfg, active_refs);
  stage.active_refs = active_refs;
  stage.valid = true;
}

void begin_frame_mirror(DeviceMirror& mirror, const EncoderConfig& cfg,
                        int active_refs, const PlaneU8& newest_recon_y,
                        MirrorStage* staged) {
  poison_cf(mirror, cfg);

  std::unique_ptr<RefMirror> fresh;
  if (staged != nullptr && staged->valid &&
      staged->active_refs == active_refs && staged->fresh != nullptr &&
      fits(*staged->fresh, cfg, ref_border(cfg))) {
    fresh = std::move(staged->fresh);
    // Swap rather than move: the mirror's last-frame field vectors return
    // to the stage, where the next prestage recycles their capacity.
    std::swap(mirror.fields, staged->fields);
    std::swap(mirror.refined, staged->refined);
    staged->valid = false;
  } else {
    // Recycle the slot this frame trims off a full window; while the
    // window fills, a spare the stage holds.
    std::unique_ptr<RefMirror> slot;
    if (!mirror.refs.empty() &&
        static_cast<int>(mirror.refs.size()) >= active_refs) {
      slot = std::move(mirror.refs.back());
      mirror.refs.pop_back();
    } else if (staged != nullptr) {
      slot = std::move(staged->spare);
    }
    fresh = poisoned_slot(std::move(slot), cfg);
    reset_fields(mirror.fields, cfg, active_refs);
    reset_fields(mirror.refined, cfg, active_refs);
  }
  copy_full_plane(newest_recon_y, fresh->recon_y);
  mirror.refs.push_front(std::move(fresh));
  while (static_cast<int>(mirror.refs.size()) > active_refs) {
    // Hand the trimmed slot to the stage as the spare the next prestage
    // adopts — the window is steady-state, so this closes the alloc loop.
    if (staged != nullptr && staged->spare == nullptr) {
      staged->spare = std::move(mirror.refs.back());
    }
    mirror.refs.pop_back();
  }
}

void restage_mirror(DeviceMirror& mirror, const EncoderConfig& cfg,
                    int active_refs, const RefList& refs) {
  FEVES_CHECK(refs.size() >= active_refs);
  poison_cf(mirror, cfg);
  const int border = ref_border(cfg);

  // The window's slots are reused in place; their contents are rewritten
  // whole below.
  std::deque<std::unique_ptr<RefMirror>> old = std::move(mirror.refs);
  mirror.refs.clear();
  for (int r = 0; r < active_refs; ++r) {
    std::unique_ptr<RefMirror> rm;
    if (!old.empty()) {
      rm = std::move(old.front());
      old.pop_front();
    }
    if (rm == nullptr || !fits(*rm, cfg, border)) {
      rm = std::make_unique<RefMirror>(cfg.width, cfg.height, border);
    }
    copy_full_plane(refs.ref(r).recon.y, rm->recon_y);
    if (r == 0) {
      // The newest reference's SF is interpolated during this frame.
      for (auto& plane : rm->sf.phases) plane.fill(DeviceMirror::kPoison);
    } else {
      for (int ph = 0; ph < kSubPel * kSubPel; ++ph) {
        copy_full_plane(refs.ref(r).sf.phases[ph], rm->sf.phases[ph]);
      }
    }
    mirror.refs.push_back(std::move(rm));
  }

  mirror.fields.assign(static_cast<std::size_t>(active_refs),
                       MotionField(static_cast<std::size_t>(cfg.total_mbs())));
  mirror.refined = mirror.fields;
}

RealBackend::RealBackend(EncodeJob& job, std::vector<DeviceMirror>& mirrors,
                         const PlatformTopology& topo,
                         std::vector<int> sme_dist)
    : job_(job),
      mirrors_(mirrors),
      topo_(topo),
      sme_dist_(std::move(sme_dist)),
      pool_(device_pool()) {
  FEVES_CHECK(static_cast<int>(mirrors.size()) == topo.num_devices());
  FEVES_CHECK(static_cast<int>(sme_dist_.size()) == topo.num_devices());
}

void RealBackend::ensure_sf_assembled() {
  std::lock_guard lock(assemble_mutex_);
  if (sf_assembled_) return;
  finish_interpolation(job_);
  sf_assembled_ = true;
}

OpPayload RealBackend::op_me(int device, RowInterval rows) {
  if (!is_accel(device)) {
    return {0.0, 0.0, [this, rows] {
              pool_.parallel_for(rows.begin, rows.end, [this](int y) {
                me_rows(job_, y, y + 1);
              });
            }};
  }
  return {0.0, 0.0, [this, device, rows] {
            DeviceMirror& m = mirrors_[device];
            MeParams params;
            params.search_range = job_.cfg->search_range;
            pool_.parallel_for(rows.begin, rows.end, [&](int y) {
              for (std::size_t r = 0; r < job_.refs.size(); ++r) {
                run_me_rows(m.cf_y, m.refs[r]->recon_y, job_.cfg->mb_width(),
                            y, y + 1, params, m.fields[r].data());
              }
            });
          }};
}

OpPayload RealBackend::op_int(int device, RowInterval rows) {
  if (!is_accel(device)) {
    return {0.0, 0.0, [this, rows] {
              pool_.parallel_for(rows.begin, rows.end, [this](int y) {
                int_rows(job_, y, y + 1);
              });
            }};
  }
  return {0.0, 0.0, [this, device, rows] {
            DeviceMirror& m = mirrors_[device];
            pool_.parallel_for(rows.begin, rows.end, [&](int y) {
              run_interpolation_rows(m.refs[0]->recon_y, y, y + 1,
                                     m.refs[0]->sf);
              // Local slices must carry valid horizontal borders for SME's
              // out-of-frame motion vectors; the canonical SF takes them
              // along (see finish_interpolation).
              for (auto& plane : m.refs[0]->sf.phases) {
                plane.extend_horizontal_borders(y * kMbSize,
                                                (y + 1) * kMbSize);
              }
              if (topo_.num_devices() == 1) {
                // Solo accelerator: there is no SF_out gather, and R*
                // (which reads the canonical SF as a stand-in for
                // device-local MC data) runs on this same device — publish
                // the slice locally.
                for (int ph = 0; ph < kSubPel * kSubPel; ++ph) {
                  copy_pixel_rows(m.refs[0]->sf.phases[ph],
                                  job_.refs[0]->sf.phases[ph], {y, y + 1},
                                  true);
                }
              }
            });
          }};
}

OpPayload RealBackend::op_sme(int device, RowInterval rows) {
  if (!is_accel(device)) {
    return {0.0, 0.0, [this, rows] {
              ensure_sf_assembled();
              pool_.parallel_for(rows.begin, rows.end, [this](int y) {
                sme_rows(job_, y, y + 1);
              });
            }};
  }
  return {0.0, 0.0, [this, device, rows] {
            DeviceMirror& m = mirrors_[device];
            SmeParams params;
            params.refine_range = job_.cfg->subpel_refine_range;
            // SF completion (σ) and MC prefetch stream on the copy lane
            // concurrently with this kernel, writing payload rows outside
            // the staged SME halo — so only extend a vertical border this
            // slice can actually reach. When a border is reachable, its
            // source edge row lies inside the halo window staged by the
            // dep-ordered SF_sme transfer and is stable to read.
            const int halo = sme_sf_halo_rows(*job_.cfg);
            const bool top = rows.begin < halo;
            const bool bottom = rows.end > job_.cfg->num_mb_rows() - halo;
            // Seed the refined field with the raw ME vectors, then refine
            // that copy — `fields` stays untouched so the MV_out gather can
            // stream it on the copy lane while this kernel runs.
            copy_field_rows(m.fields, m.refined, rows,
                            job_.cfg->mb_width());
            for (std::size_t r = 0; r < job_.refs.size(); ++r) {
              for (auto& plane : m.refs[r]->sf.phases) {
                plane.extend_vertical_borders(top, bottom);
              }
            }
            pool_.parallel_for(rows.begin, rows.end, [&](int y) {
              for (std::size_t r = 0; r < job_.refs.size(); ++r) {
                run_sme_rows(m.cf_y, m.refs[r]->sf, job_.cfg->mb_width(), y,
                             y + 1, params, m.refined[r].data());
              }
            });
          }};
}

OpPayload RealBackend::op_rstar(int device) {
  return {0.0, 0.0, [this, device] {
            if (is_accel(device)) {
              // The R* host's own SME rows live in its mirror; publish them
              // into the canonical fields (a device-local no-cost step — in
              // a real system this data never leaves the device).
              const auto s_iv = intervals_of(sme_dist_);
              copy_field_rows(mirrors_[device].refined, job_.fields,
                              s_iv[device], job_.cfg->mb_width());
            }
            ensure_sf_assembled();
            // rstar_frame split over the device's cores: independent MB
            // rows, each entropy coded as soon as its levels exist, then
            // the deblocking wavefront.
            pool_.parallel_for(0, job_.cfg->mb_height(), [this](int y) {
              rstar_rows(job_, y, y + 1);
              entropy_rows(job_, y, y + 1);
            });
            finish_reconstruction(job_, SimdTier::kAuto, &pool_);
          }};
}

OpPayload RealBackend::op_xfer(int device, XferPurpose purpose,
                               const std::vector<RowInterval>& fragments) {
  FEVES_CHECK(is_accel(device));
  auto frags = fragments;
  int rows = 0;
  for (const RowInterval& f : frags) rows += f.length();
  double row_bytes = 0.0;
  switch (buffer_of(purpose)) {
    case BufferKind::kCf:
      row_bytes = cf_row_bytes(*job_.cfg);
      break;
    case BufferKind::kRf:
      row_bytes = rf_row_bytes(*job_.cfg);
      break;
    case BufferKind::kSf:
      row_bytes = sf_row_bytes(*job_.cfg);
      break;
    case BufferKind::kMv:
      row_bytes =
          mv_row_bytes(*job_.cfg, static_cast<int>(job_.refs.size()));
      break;
  }
  return {0.0, rows * row_bytes, [this, device, purpose, frags] {
            DeviceMirror& m = mirrors_[device];
            switch (purpose) {
              case XferPurpose::kRfIn:
              case XferPurpose::kRfOut:
                // Reference staging happens in begin_frame_mirror (every
                // accelerator receives the canonical newest recon); R*
                // writes the canonical reconstruction directly. These ops
                // exist for their timing semantics.
                break;
              case XferPurpose::kCfMe:
              case XferPurpose::kCfSme:
              case XferPurpose::kCfMc:
                for (const RowInterval& f : frags) {
                  copy_pixel_rows(job_.cur->y, m.cf_y, f, false);
                }
                break;
              case XferPurpose::kSfSme:
              case XferPurpose::kSfComplete:
              case XferPurpose::kSfMc: {
                ensure_sf_assembled();
                SubPelFrame& dst = m.refs[0]->sf;
                const SubPelFrame& src = job_.refs[0]->sf;
                for (const RowInterval& f : frags) {
                  for (int ph = 0; ph < kSubPel * kSubPel; ++ph) {
                    copy_pixel_rows(src.phases[ph], dst.phases[ph], f, true);
                  }
                }
                break;
              }
              case XferPurpose::kSfCarry: {
                // Completes the PREVIOUS frame's SF, now at refs[1].
                FEVES_CHECK(job_.refs.size() >= 2 && m.refs.size() >= 2);
                SubPelFrame& dst = m.refs[1]->sf;
                const SubPelFrame& src = job_.refs[1]->sf;
                for (const RowInterval& f : frags) {
                  for (int ph = 0; ph < kSubPel * kSubPel; ++ph) {
                    copy_pixel_rows(src.phases[ph], dst.phases[ph], f, true);
                  }
                }
                break;
              }
              case XferPurpose::kSfOut: {
                // Gather the locally interpolated slice into the canonical
                // SF with its horizontal borders (op_int extended them);
                // assembly adds only the vertical ones.
                SubPelFrame& dst = job_.refs[0]->sf;
                const SubPelFrame& src = m.refs[0]->sf;
                for (const RowInterval& f : frags) {
                  for (int ph = 0; ph < kSubPel * kSubPel; ++ph) {
                    copy_pixel_rows(src.phases[ph], dst.phases[ph], f, true);
                  }
                }
                break;
              }
              case XferPurpose::kMvSme:
                for (const RowInterval& f : frags) {
                  copy_field_rows(job_.fields, m.fields, f,
                                  job_.cfg->mb_width());
                }
                break;
              case XferPurpose::kMvMc:
                // MC prefetch carries refined vectors; it lands in the
                // refined buffer so the H2D lane never collides with the
                // MV_out gather still draining `fields` on the D2H lane.
                for (const RowInterval& f : frags) {
                  copy_field_rows(job_.fields, m.refined, f,
                                  job_.cfg->mb_width());
                }
                break;
              case XferPurpose::kMvOut:
                for (const RowInterval& f : frags) {
                  copy_field_rows(m.fields, job_.fields, f,
                                  job_.cfg->mb_width());
                }
                break;
              case XferPurpose::kSmeMvOut:
                // Refined vectors live in their own buffer (see
                // DeviceMirror::refined).
                for (const RowInterval& f : frags) {
                  copy_field_rows(m.refined, job_.fields, f,
                                  job_.cfg->mb_width());
                }
                break;
            }
          }};
}

}  // namespace feves

#include "replay.hpp"

#include "codec/bitstream.hpp"
#include "stats.hpp"

#include <algorithm>

namespace perfbench {

void replay_frames(const StreamToVerify& stream, const DecodedStream& decoded,
                   const std::vector<int>& frames, SpanLog* spans,
                   ReplaySamples* out) {
  const feves::EncoderConfig& cfg = stream.cfg;
  const int rows = cfg.num_mb_rows();
  ReplaySamples& r = *out;
  feves::RefList refs(cfg.num_ref_frames);
  for (std::size_t n = 0; n < frames.size(); ++n) {
    const int f = frames[n];
    double module_ms = 0.0;
    const std::size_t fi = static_cast<std::size_t>(f);
    const feves::Frame420& cur = clip_frame(*stream.clip, f);

    auto modules = [&] {
      seed_reference_window(cfg, decoded, f, &refs);
      std::vector<feves::RefPicture*> borrowed;
      for (int i = 0; i < refs.size(); ++i) borrowed.push_back(&refs.ref(i));

      const double p0 = now_ms();
      const int frame_span =
          spans != nullptr ? spans->open("codec.replay_frame", p0, -1, -1) : -1;
      auto stage = [&](const char* name, double begin) {
        const double end = now_ms();
        if (spans != nullptr) spans->add(name, begin, end, frame_span, -1);
        return end;
      };
      // The frame's working state (motion fields, coded levels, the new
      // reconstruction) is allocated and released inside
      // encode_frame_reference too, so it is timed here as well.
      auto job = std::make_unique<feves::EncodeJob>();
      job->prepare(cfg, cur, std::move(borrowed), f);
      const double t0 = stage("codec.prepare", p0);
      feves::me_rows(*job, 0, rows);
      const double t1 = stage("codec.me", t0);
      feves::int_rows(*job, 0, rows);
      feves::finish_interpolation(*job);
      const double t2 = stage("codec.int", t1);
      feves::sme_rows(*job, 0, rows);
      const double t3 = stage("codec.sme", t2);
      feves::rstar_frame(*job);
      const double t4 = stage("codec.rstar", t3);
      feves::BitWriter bw;
      feves::write_frame_bitstream(*job, bw);
      const double t5 = stage("codec.entropy", t4);
      job.reset();
      const double t6 = stage("codec.release", t5);
      if (spans != nullptr) spans->close(frame_span, t6);

      r.me_ms.push_back(t1 - t0);
      r.int_ms.push_back(t2 - t1);
      r.sme_ms.push_back(t3 - t2);
      r.rstar_ms.push_back(t4 - t3);
      r.entropy_ms.push_back(t5 - t4);
      r.prepare_ms.push_back((t0 - p0) + (t6 - t5));
      module_ms = t6 - p0;

      const auto& bytes = bw.bytes();
      const auto first = stream.bitstream->begin() +
                         static_cast<std::ptrdiff_t>(decoded.frame_begin[fi]);
      const std::size_t len = decoded.frame_end[fi] - decoded.frame_begin[fi];
      if (bytes.size() != len ||
          !std::equal(bytes.begin(), bytes.end(), first)) {
        ++r.mismatches;
      }
      r.bytes.push_back(static_cast<double>(len));
    };

    // The plain single-device baseline on a freshly seeded window.
    auto reference = [&] {
      seed_reference_window(cfg, decoded, f, &refs);
      std::vector<feves::u8> bytes;
      const double r0 = now_ms();
      feves::encode_frame_reference(cfg, cur, refs, f, &bytes);
      const double r1 = now_ms();
      if (spans != nullptr) spans->add("codec.reference_frame", r0, r1, -1, -1);
      r.ref_frame_ms.push_back(r1 - r0);
    };

    // Alternate which of the two runs first, so neither always gets the
    // warmer (or the more disturbed) slot.
    if (n % 2 == 0) {
      modules();
      reference();
    } else {
      reference();
      modules();
    }
    r.module_ms.push_back(module_ms);
    const double cands =
        (2.0 * cfg.search_range + 1) * (2.0 * cfg.search_range + 1);
    r.me_pixel_ops.push_back(cands * 256.0 * cfg.total_mbs() *
                             std::min(cfg.num_ref_frames, f));
  }
}

ReplayTimes summarize(const ReplaySamples& s) {
  ReplayTimes t;
  t.frames = static_cast<int>(s.me_ms.size());
  t.me_ms = median(s.me_ms);
  t.int_ms = median(s.int_ms);
  t.sme_ms = median(s.sme_ms);
  t.rstar_ms = median(s.rstar_ms);
  t.entropy_ms = median(s.entropy_ms);
  t.prepare_ms = median(s.prepare_ms);
  const double ref_total = sum(s.ref_frame_ms);
  t.module_to_ref = ref_total > 0 ? sum(s.module_ms) / ref_total : 0.0;
  t.ref_frame_ms = median(s.ref_frame_ms);
  t.bytes = mean(s.bytes);
  const double me_total = sum(s.me_ms);
  t.me_gops = me_total > 0 ? sum(s.me_pixel_ops) / me_total / 1e6 : 0.0;
  t.mismatches = s.mismatches;
  return t;
}

}  // namespace perfbench

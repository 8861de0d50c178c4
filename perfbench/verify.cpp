#include "verify.hpp"

#include "codec/bitstream.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

using feves::EncoderConfig;
using feves::Frame420;
using feves::RefList;
using feves::RefPicture;

bool same_plane(const feves::PlaneU8& a, const feves::PlaneU8& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  for (int y = 0; y < a.height(); ++y) {
    if (std::memcmp(a.row(y), b.row(y), static_cast<std::size_t>(a.width())) !=
        0) {
      return false;
    }
  }
  return true;
}

/// Runs `job(i)` for i in [0, n) on up to `threads` threads.
void parallel_for(int n, int threads, const std::function<void(int)>& job) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  const int k = std::max(1, std::min(threads, n));
  for (int t = 0; t < k; ++t) {
    pool.emplace_back([&] {
      for (int i = next++; i < n; i = next++) job(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

DecodedStream decode_stream(const StreamToVerify& s) {
  DecodedStream d;
  const std::vector<feves::u8>& bytes = *s.bitstream;
  try {
    RefList refs(s.cfg.num_ref_frames);
    feves::BitReader br(bytes);
    for (int f = 0; f < s.frames; ++f) {
      FEVES_CHECK_MSG(br.bit_position() % 8 == 0, "frame not byte aligned");
      d.frame_begin.push_back(br.bit_position() / 8);
      auto pic = feves::decode_frame(s.cfg, br, refs);
      d.frame_end.push_back((br.bit_position() + 7) / 8);
      d.recon.push_back(pic->recon);
      refs.push_front(std::move(pic));
    }
    FEVES_CHECK_MSG(br.bit_position() == bytes.size() * 8,
                    "trailing bytes after " << s.frames << " frames");
  } catch (const std::exception& e) {
    d.error = std::string("decode: ") + e.what();
  }
  return d;
}

void interpolate_newest(const EncoderConfig& cfg, RefPicture* pic) {
  feves::EncodeJob job;
  job.prepare(cfg, pic->recon, {pic}, pic->frame_number + 1);
  feves::int_rows(job, 0, cfg.num_mb_rows());
  feves::finish_interpolation(job);
}

struct Chunk {
  int stream = 0;
  int begin = 0;
  int end = 0;
};

}  // namespace

bool same_pixels(const Frame420& a, const Frame420& b) {
  return same_plane(a.y, b.y) && same_plane(a.u, b.u) && same_plane(a.v, b.v);
}

void seed_reference_window(const EncoderConfig& cfg,
                           const DecodedStream& decoded, int f,
                           RefList* refs) {
  refs->clear();
  const int depth = std::min(cfg.num_ref_frames, f);
  for (int k = depth; k >= 1; --k) {  // oldest first; newest ends in front
    auto pic = std::make_unique<RefPicture>(cfg.width, cfg.height,
                                            feves::ref_border(cfg));
    pic->recon = decoded.recon[static_cast<std::size_t>(f - k)];
    pic->frame_number = f - k;
    // The reference encoder interpolates only its newest reference; older
    // ones carry the SF they got when they were newest.
    if (k > 1) interpolate_newest(cfg, pic.get());
    refs->push_front(std::move(pic));
  }
}

std::vector<StreamCheck> verify_streams(const std::vector<StreamToVerify>& in,
                                        int threads) {
  std::vector<StreamCheck> out(in.size());
  parallel_for(static_cast<int>(in.size()), threads, [&](int i) {
    out[static_cast<std::size_t>(i)].decoded =
        decode_stream(in[static_cast<std::size_t>(i)]);
  });

  // Chunks small enough to keep every thread busy to the end.
  int total = 0;
  for (const StreamToVerify& s : in) total += s.frames;
  const int chunk_len = std::max(2, total / std::max(1, threads * 3));
  std::vector<Chunk> chunks;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (!out[i].decoded.error.empty()) {
      out[i].error = out[i].decoded.error;
      out[i].frames_checked = in[i].frames;
      out[i].frames_failed = in[i].frames;
      continue;
    }
    for (int b = 0; b < in[i].frames; b += chunk_len) {
      chunks.push_back({static_cast<int>(i), b,
                        std::min(in[i].frames, b + chunk_len)});
    }
  }

  std::mutex mu;  // guards out[*].frames_checked/failed/error
  parallel_for(static_cast<int>(chunks.size()), threads, [&](int c) {
    const Chunk& ch = chunks[static_cast<std::size_t>(c)];
    const StreamToVerify& s = in[static_cast<std::size_t>(ch.stream)];
    StreamCheck& res = out[static_cast<std::size_t>(ch.stream)];
    const DecodedStream& d = res.decoded;
    RefList refs(s.cfg.num_ref_frames);
    seed_reference_window(s.cfg, d, ch.begin, &refs);
    std::vector<feves::u8> bytes;
    for (int f = ch.begin; f < ch.end; ++f) {
      bytes.clear();
      auto pic = feves::encode_frame_reference(s.cfg, clip_frame(*s.clip, f),
                                               refs, f, &bytes);
      const std::size_t fi = static_cast<std::size_t>(f);
      const std::size_t len = d.frame_end[fi] - d.frame_begin[fi];
      const bool bits_ok =
          bytes.size() == len &&
          std::equal(bytes.begin(), bytes.end(),
                     s.bitstream->begin() +
                         static_cast<std::ptrdiff_t>(d.frame_begin[fi]));
      const bool recon_ok = same_pixels(pic->recon, d.recon[fi]);
      refs.push_front(std::move(pic));
      std::lock_guard lock(mu);
      ++res.frames_checked;
      if (!bits_ok || !recon_ok) {
        ++res.frames_failed;
        if (res.error.empty()) {
          std::ostringstream os;
          os << "frame " << f << ": "
             << (bits_ok ? "reconstruction" : "bitstream")
             << " differs from the single-device reference";
          res.error = os.str();
        }
      }
    }
  });
  return out;
}

}  // namespace perfbench

// Quickstart: encode a short synthetic clip with the collaborative FEVES
// encoder on a simulated CPU+GPU platform, decode the bitstream back, and
// verify the round trip.
//
//   ./quickstart [width height frames]
//
// This is real mode: every pixel is actually encoded on host threads. All
// modelled "devices" run on the same host cores, so the default adaptive
// load balancer prices that shared host and runs each inter frame after
// the first on one device — here the CPU, with the accelerator sitting the
// frame out — and that device spreads its MB rows over the cores. The "me
// split" column shows it. An equidistant or proportional policy spreads
// rows across every device instead (DESIGN.md §1 for the hardware
// substitution, §6j for the shared host).
#include "cli_main.hpp"
#include "codec/bitstream.hpp"
#include "core/collaborative_encoder.hpp"
#include "platform/presets.hpp"
#include "video/metrics.hpp"
#include "video/sequence.hpp"

#include <cstdio>
#include <cstdlib>

namespace {

int run(int argc, char** argv) {
  using namespace feves;

  EncoderConfig cfg;
  cfg.width = argc > 1 ? std::atoi(argv[1]) : 352;
  cfg.height = argc > 2 ? std::atoi(argv[2]) : 288;
  const int frames = argc > 3 ? std::atoi(argv[3]) : 10;
  cfg.search_range = 8;
  cfg.num_ref_frames = 2;
  cfg.validate();

  // A CPU + one accelerator platform (the SysNF shape).
  const PlatformTopology topo = make_sys_nf();

  SyntheticConfig scene;
  scene.width = cfg.width;
  scene.height = cfg.height;
  scene.frames = frames;
  scene.kind = SceneKind::kRollingObjects;
  SyntheticSequence source(scene);

  std::printf("FEVES quickstart: %dx%d, %d frames, %d refs, SA %dx%d, %s\n",
              cfg.width, cfg.height, frames, cfg.num_ref_frames,
              cfg.search_area_size(), cfg.search_area_size(), "SysNF");

  CollaborativeEncoder encoder(cfg, topo);
  std::vector<u8> bitstream;
  Frame420 frame(cfg.width, cfg.height);
  std::vector<Frame420> recons;

  for (int f = 0; f < frames; ++f) {
    if (!source.read_frame(f, frame)) break;
    const FrameStats stats = encoder.encode_frame(frame, &bitstream);
    recons.push_back(encoder.last_recon());
    std::printf(
        "  frame %2d: %s  psnr-Y %5.2f dB  bitstream %7zu B  me split [",
        f, f == 0 ? "I" : "P", plane_psnr(encoder.last_recon().y, frame.y),
        bitstream.size());
    for (std::size_t i = 0; i < stats.dist.me.size(); ++i) {
      std::printf("%s%d", i ? " " : "", stats.dist.me[i]);
    }
    std::printf("]\n");
  }

  // Decode everything back and confirm bit-exact reconstructions.
  RefList dec_refs(cfg.num_ref_frames);
  BitReader br(bitstream);
  bool all_match = true;
  for (std::size_t f = 0; f < recons.size(); ++f) {
    auto pic = decode_frame(cfg, br, dec_refs);
    all_match = all_match && frames_bit_exact(pic->recon, recons[f]);
    dec_refs.push_front(std::move(pic));
  }
  std::printf("decode round-trip: %s (%zu frames, %zu bytes)\n",
              all_match ? "bit-exact" : "MISMATCH", recons.size(),
              bitstream.size());
  return all_match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return feves::examples::guarded_main(argc, argv,
                                       "[width height frames]", run);
}

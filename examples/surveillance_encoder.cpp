// Surveillance-style encoder: long-running real-mode encode of a mostly
// static scene with occasional motion, writing an elementary stream and a
// reconstructed YUV for inspection, and printing per-frame rate/quality
// telemetry. Demonstrates file output (decodable with the quickstart's
// decode path), multi-reference prediction on low-motion content, and the
// encoder's behaviour when content characteristics shift mid-stream.
//
//   ./surveillance_encoder [frames] [out.bin] [recon.yuv]
#include "cli_main.hpp"
#include "core/collaborative_encoder.hpp"
#include "platform/presets.hpp"
#include "video/metrics.hpp"
#include "video/sequence.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace {

int run(int argc, char** argv) {
  using namespace feves;
  const int frames = argc > 1 ? std::atoi(argv[1]) : 12;
  const char* out_path = argc > 2 ? argv[2] : "surveillance.bin";
  const char* yuv_path = argc > 3 ? argv[3] : "";

  EncoderConfig cfg;
  cfg.width = 320;
  cfg.height = 240;
  cfg.search_range = 8;
  cfg.num_ref_frames = 4;  // static background: older refs stay useful

  // Calm scene: slow pan, few slow objects, light sensor noise.
  SyntheticConfig scene;
  scene.width = cfg.width;
  scene.height = cfg.height;
  scene.frames = frames;
  scene.kind = SceneKind::kCalendar;
  scene.num_objects = 2;
  scene.max_object_speed = 1.0;
  scene.global_pan_speed = 0.2;
  scene.noise_stddev = 1.0;
  SyntheticSequence source(scene);

  CollaborativeEncoder encoder(cfg, make_sys_nf());
  std::vector<u8> bitstream;
  Frame420 frame(cfg.width, cfg.height);

  std::printf("surveillance encode: %dx%d, %d frames, 4 RFs\n", cfg.width,
              cfg.height, frames);
  std::printf("%-6s %-4s %-10s %-10s %-12s\n", "frame", "type", "psnr-Y",
              "ssim-Y", "stream [B]");

  std::size_t last_size = 0;
  double psnr_acc = 0.0;
  for (int f = 0; f < frames; ++f) {
    if (!source.read_frame(f, frame)) break;
    encoder.encode_frame(frame, &bitstream);
    const double psnr = plane_psnr(encoder.last_recon().y, frame.y);
    psnr_acc += psnr;
    std::printf("%-6d %-4s %-10.2f %-10.4f %-12zu\n", f, f == 0 ? "I" : "P",
                psnr, plane_ssim(encoder.last_recon().y, frame.y),
                bitstream.size() - last_size);
    last_size = bitstream.size();
    if (yuv_path[0] != '\0') append_yuv(encoder.last_recon(), yuv_path);
  }

  std::ofstream out(out_path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bitstream.data()),
            static_cast<std::streamsize>(bitstream.size()));
  std::printf("\nwrote %zu bytes to %s (avg psnr-Y %.2f dB)\n",
              bitstream.size(), out_path, psnr_acc / frames);
  if (yuv_path[0] != '\0') {
    std::printf("reconstruction appended to %s (I420 %dx%d)\n", yuv_path,
                cfg.width, cfg.height);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return feves::examples::guarded_main(argc, argv,
                                       "[frames] [out.bin] [recon.yuv]", run);
}

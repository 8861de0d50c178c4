// feves_cli — command-line encoder: raw I420 YUV in, FEVES elementary
// stream out, optional reconstructed YUV and per-frame statistics.
//
//   feves_cli --input in.yuv --width 352 --height 288 [options]
//   feves_cli --synthetic 30 --width 352 --height 288 [options]
//
// Options:
//   --output FILE       elementary stream (default: out.fvs)
//   --recon FILE        write reconstructed I420 (default: off)
//   --frames N          limit frame count
//   --sa N              search-area edge in pixels (default 32)
//   --refs N            reference frames (default 2)
//   --qp N              P-slice QP (default 28; I uses QP-1)
//   --system NAME       CPU_N|...|SysHK (default SysNF)
//   --policy NAME       adaptive|proportional|equidistant (default adaptive)
//   --decode-check      decode the stream afterwards and verify bit-exactness
//
// Exit status: 0 on success, 1 when the encode or its decode check fails,
// 2 on bad arguments (including a configuration the encoder rejects, such
// as a height that is not a multiple of 16).
#include "cli_main.hpp"
#include "codec/bitstream.hpp"
#include "core/collaborative_encoder.hpp"
#include "platform/presets.hpp"
#include "video/metrics.hpp"
#include "video/sequence.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

namespace {

struct Args {
  std::string input;
  std::string output = "out.fvs";
  std::string recon;
  std::string system = "SysNF";
  std::string policy = "adaptive";
  int width = 352;
  int height = 288;
  int frames = -1;
  int synthetic = 0;
  int sa = 32;
  int refs = 2;
  int qp = 28;
  bool decode_check = false;
};

constexpr const char* kUsage =
    "(--input in.yuv | --synthetic N) --width W --height H\n"
    "          [--output out.fvs] [--recon out.yuv] [--frames N]\n"
    "          [--sa N] [--refs N] [--qp N] [--system NAME]\n"
    "          [--policy adaptive|proportional|equidistant]\n"
    "          [--decode-check]";

[[noreturn]] void usage(const char* argv0) {
  feves::examples::print_usage(argv0, kUsage);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--input") a.input = value();
    else if (flag == "--output") a.output = value();
    else if (flag == "--recon") a.recon = value();
    else if (flag == "--system") a.system = value();
    else if (flag == "--policy") a.policy = value();
    else if (flag == "--width") a.width = std::atoi(value());
    else if (flag == "--height") a.height = std::atoi(value());
    else if (flag == "--frames") a.frames = std::atoi(value());
    else if (flag == "--synthetic") a.synthetic = std::atoi(value());
    else if (flag == "--sa") a.sa = std::atoi(value());
    else if (flag == "--refs") a.refs = std::atoi(value());
    else if (flag == "--qp") a.qp = std::atoi(value());
    else if (flag == "--decode-check") a.decode_check = true;
    else usage(argv[0]);
  }
  if (a.input.empty() && a.synthetic <= 0) usage(argv[0]);
  return a;
}

int run(int argc, char** argv) {
  using namespace feves;
  const Args args = parse_args(argc, argv);

  EncoderConfig cfg;
  cfg.width = args.width;
  cfg.height = args.height;
  cfg.search_range = args.sa / 2;
  cfg.num_ref_frames = args.refs;
  cfg.qp_p = args.qp;
  cfg.qp_i = args.qp > 0 ? args.qp - 1 : 0;
  cfg.validate();

  std::unique_ptr<VideoSource> source;
  if (!args.input.empty()) {
    source = std::make_unique<YuvFileSequence>(args.input, cfg.width,
                                               cfg.height);
  } else {
    SyntheticConfig sc;
    sc.width = cfg.width;
    sc.height = cfg.height;
    sc.frames = args.synthetic;
    source = std::make_unique<SyntheticSequence>(sc);
  }
  int frames = source->frame_count();
  if (args.frames > 0 && args.frames < frames) frames = args.frames;
  if (frames <= 0) {
    std::fprintf(stderr, "no frames to encode\n");
    return 1;
  }

  FrameworkOptions opts;
  if (args.policy == "adaptive") opts.policy = SchedulingPolicy::kAdaptiveLp;
  else if (args.policy == "proportional")
    opts.policy = SchedulingPolicy::kProportional;
  else if (args.policy == "equidistant")
    opts.policy = SchedulingPolicy::kEquidistant;
  else usage(argv[0]);

  CollaborativeEncoder encoder(cfg, topology_by_name(args.system), opts);
  std::vector<u8> bitstream;
  std::vector<Frame420> recons;
  Frame420 frame(cfg.width, cfg.height);

  std::printf("feves_cli: %dx%d x%d frames, SA %dx%d, %d refs, QP %d, %s/%s\n",
              cfg.width, cfg.height, frames, args.sa, args.sa, args.refs,
              args.qp, args.system.c_str(), args.policy.c_str());

  double psnr_acc = 0.0;
  std::size_t last_size = 0;
  for (int f = 0; f < frames; ++f) {
    if (!source->read_frame(f, frame)) break;
    encoder.encode_frame(frame, &bitstream);
    const double psnr = plane_psnr(encoder.last_recon().y, frame.y);
    psnr_acc += psnr;
    std::printf("  frame %3d %s  psnr-Y %6.2f dB  %7zu B\n", f,
                f == 0 ? "I" : "P", psnr, bitstream.size() - last_size);
    last_size = bitstream.size();
    if (!args.recon.empty()) append_yuv(encoder.last_recon(), args.recon);
    if (args.decode_check) recons.push_back(encoder.last_recon());
  }

  std::ofstream out(args.output, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bitstream.data()),
            static_cast<std::streamsize>(bitstream.size()));
  std::printf("wrote %zu bytes to %s (avg psnr-Y %.2f dB, %.3f bpp)\n",
              bitstream.size(), args.output.c_str(), psnr_acc / frames,
              8.0 * static_cast<double>(bitstream.size()) /
                  (static_cast<double>(cfg.width) * cfg.height * frames));

  if (args.decode_check) {
    RefList dec_refs(cfg.num_ref_frames);
    BitReader br(bitstream);
    for (std::size_t f = 0; f < recons.size(); ++f) {
      auto pic = decode_frame(cfg, br, dec_refs);
      if (!frames_bit_exact(pic->recon, recons[f])) {
        std::fprintf(stderr, "decode mismatch at frame %zu\n", f);
        return 1;
      }
      dec_refs.push_front(std::move(pic));
    }
    std::printf("decode check: all %zu frames bit-exact\n", recons.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Configuration, topology and input-file errors are usage errors.
  return feves::examples::guarded_main(argc, argv, kUsage, run);
}

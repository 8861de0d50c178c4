// Correctness gate: every session's bitstream must equal, byte for byte,
// the single-device reference encoder's stream for the same input.
//
// The reference encoder is sequential (frame f needs the reconstruction of
// frame f-1), which at 1080p costs more than the timed run itself. The gate
// therefore runs it in parallel chunks: the session's stream is first
// decoded once (cheap), then each chunk of frames is re-encoded with
// encode_frame_reference starting from the decoded reconstructions before
// the chunk. Per frame it requires (a) the reference bytes to equal the
// session's bytes for that frame and (b) the reference reconstruction to
// equal the decoded one. By induction from the intra frame, (a) and (b) for
// every frame mean the reference window fed to each chunk is exactly the
// one a single sequential reference run would hold there, so the whole
// stream equals the sequential reference stream.
#pragma once

#include "codec/frame_codec.hpp"
#include "inputs.hpp"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct StreamToVerify {
  feves::EncoderConfig cfg;
  std::shared_ptr<const Clip> clip;
  const std::vector<feves::u8>* bitstream = nullptr;
  int frames = 0;  ///< frames the program reported as committed
};

/// A session's stream decoded once, sequentially.
struct DecodedStream {
  std::vector<std::size_t> frame_begin;  ///< byte offset of each frame
  std::vector<std::size_t> frame_end;
  std::vector<feves::Frame420> recon;    ///< decoder reconstruction
  std::string error;                     ///< empty when decoding succeeded
};

struct StreamCheck {
  DecodedStream decoded;
  int frames_checked = 0;
  int frames_failed = 0;
  std::string error;  ///< first failure, empty when the stream is bit-exact
  bool ok() const { return error.empty() && frames_failed == 0; }
};

/// Decodes every stream and re-encodes it through the reference encoder on
/// up to `threads` threads.
std::vector<StreamCheck> verify_streams(const std::vector<StreamToVerify>& in,
                                        int threads);

/// Fills `refs` with the reference window before frame `f` rebuilt from
/// decoded reconstructions (newest first, every SF but the newest
/// interpolated, as encode_frame_reference expects).
void seed_reference_window(const feves::EncoderConfig& cfg,
                           const DecodedStream& decoded, int f,
                           feves::RefList* refs);

/// Interior (unbordered) equality of two frames.
bool same_pixels(const feves::Frame420& a, const feves::Frame420& b);

}  // namespace perfbench

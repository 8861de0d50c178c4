// Codec-layer replay for the traced run: re-encodes some of a session's own
// inter-frames single-threaded through the row-ranged module entry points
// (me_rows, int_rows + finish_interpolation, sme_rows, rstar_frame,
// write_frame_bitstream), timing each module, then times the plain
// single-device encode_frame_reference on the same frames.
#pragma once

#include "spans.hpp"
#include "verify.hpp"

namespace perfbench {

/// Per-frame samples of replayed frames.
struct ReplaySamples {
  std::vector<double> me_ms, int_ms, sme_ms, rstar_ms, entropy_ms;
  std::vector<double> prepare_ms;  ///< EncodeJob set-up and release
  std::vector<double> module_ms;  ///< all of the above, per frame
  std::vector<double> ref_frame_ms;
  std::vector<double> bytes;
  std::vector<double> me_pixel_ops;  ///< computed SAD pixel-ops
  int mismatches = 0;                ///< replayed bytes != the session's
};

/// Replay summary: module times are per-frame medians, so one disturbed
/// frame does not move them.
struct ReplayTimes {
  int frames = 0;
  double me_ms = 0.0;
  double int_ms = 0.0;
  double sme_ms = 0.0;
  double rstar_ms = 0.0;
  double entropy_ms = 0.0;
  double prepare_ms = 0.0;
  /// Σ module_ms ÷ Σ ref_frame_ms. Frames alternate which of the two runs
  /// first (M R, R M, M R, ...), so over an even number of frames a steady
  /// drift in host speed cancels in this ratio of totals.
  double module_to_ref = 0.0;
  double ref_frame_ms = 0.0;
  double bytes = 0.0;    ///< mean over the replayed frames
  double me_gops = 0.0;  ///< total SAD pixel-ops / total ME time
  int mismatches = 0;
};

/// Replays inter-frames `frames` of one verified stream, adding to `out`.
/// Spans go to `spans` (session -1) when non-null.
void replay_frames(const StreamToVerify& stream, const DecodedStream& decoded,
                   const std::vector<int>& frames, SpanLog* spans,
                   ReplaySamples* out);

ReplayTimes summarize(const ReplaySamples& samples);

}  // namespace perfbench

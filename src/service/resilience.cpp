#include "service/resilience.hpp"

namespace feves {

const char* to_string(TerminalReason reason) {
  switch (reason) {
    case TerminalReason::kCompleted: return "completed";
    case TerminalReason::kAborted: return "aborted";
    case TerminalReason::kShed: return "shed";
    case TerminalReason::kDeadlineExceeded: return "deadline-exceeded";
    case TerminalReason::kRestartsExhausted: return "restarts-exhausted";
    case TerminalReason::kNoUsableDevice: return "no-usable-device";
    case TerminalReason::kProbationChurn: return "probation-churn";
    case TerminalReason::kNoLiveWorker: return "no-live-worker";
    case TerminalReason::kError: return "error";
  }
  return "unknown";
}

SessionEncoder::SessionEncoder(const EncoderConfig& cfg,
                               const PlatformTopology& topo,
                               const FrameworkOptions& fw,
                               std::shared_ptr<VideoSource> source,
                               SimdTier tier,
                               const PerturbationSchedule& perturbations,
                               const FaultSchedule& faults)
    : source_(std::move(source)) {
  if (source_ == nullptr) {
    vfw_ = std::make_unique<VirtualFramework>(cfg, topo, fw, perturbations,
                                              faults);
  } else {
    frame_ = Frame420(cfg.width, cfg.height);
    enc_ = std::make_unique<CollaborativeEncoder>(cfg, topo, fw, tier, faults);
  }
}

FrameStats SessionEncoder::encode_frame(const FrameGrant& grant,
                                        std::vector<u8>* bitstream) {
  return vfw_ != nullptr ? vfw_->encode_frame(grant)
                         : enc_->encode_frame(frame_, bitstream, grant);
}

EncoderCheckpoint SessionEncoder::checkpoint() const {
  if (enc_ != nullptr) return enc_->checkpoint();
  EncoderCheckpoint cp;
  cp.fw = vfw_->checkpoint();
  return cp;
}

void SessionEncoder::restore(const EncoderCheckpoint& cp) {
  if (enc_ != nullptr) {
    enc_->restore(cp);
  } else {
    vfw_->restore(cp.fw);
  }
}

}  // namespace feves

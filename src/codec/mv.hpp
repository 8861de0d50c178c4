// Motion vectors and per-macroblock motion records.
//
// All motion vectors are expressed in QUARTER-PEL units throughout the
// encoder. Integer-pel full-search ME produces multiples of 4; the SME
// module refines them to arbitrary quarter-pel positions (paper, Sec. II).
#pragma once

#include "common/types.hpp"

#include <limits>

namespace feves {

struct Mv {
  i16 x = 0;  ///< horizontal displacement, quarter-pel units
  i16 y = 0;  ///< vertical displacement, quarter-pel units

  friend bool operator==(const Mv&, const Mv&) = default;
};

/// Cost sentinel meaning "no candidate evaluated yet".
inline constexpr u32 kInvalidCost = std::numeric_limits<u32>::max();

/// One motion candidate: vector + distortion of the best match so far.
struct MotionEntry {
  Mv mv;
  u32 cost = kInvalidCost;
};

}  // namespace feves

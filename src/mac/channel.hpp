#pragma once

/// \file channel.hpp
/// Slot resolution semantics of the multiple access channel.
///
/// The channel is memoryless: the outcome of a slot is a pure function of
/// how many stations transmit in it, and the feedback each station receives
/// is a pure function of the outcome and the feedback model.

#include <cstddef>

#include "mac/types.hpp"

namespace wakeup::mac {

/// Outcome from the number of simultaneous transmitters.
[[nodiscard]] constexpr SlotOutcome resolve_slot(std::size_t transmitter_count) noexcept {
  if (transmitter_count == 0) return SlotOutcome::kSilence;
  if (transmitter_count == 1) return SlotOutcome::kSuccess;
  return SlotOutcome::kCollision;
}

/// What a station hears, given the outcome and the feedback model.
/// In the paper's model (kNone) silence and collision both map to
/// kNothing — a station cannot tell them apart.
[[nodiscard]] constexpr ChannelFeedback feedback_for(SlotOutcome outcome,
                                                     FeedbackModel model) noexcept {
  switch (outcome) {
    case SlotOutcome::kSuccess:
      return ChannelFeedback::kSuccess;
    case SlotOutcome::kSilence:
      return model == FeedbackModel::kCollisionDetection ? ChannelFeedback::kSilence
                                                         : ChannelFeedback::kNothing;
    case SlotOutcome::kCollision:
      return model == FeedbackModel::kCollisionDetection ? ChannelFeedback::kCollision
                                                         : ChannelFeedback::kNothing;
  }
  return ChannelFeedback::kNothing;
}

}  // namespace wakeup::mac

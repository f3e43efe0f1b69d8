#pragma once

/// \file multichannel.hpp
/// Multi-channel single-hop radio model — the extension direction the
/// paper's authors pursued next (references [6, 7]: "Scalable wake-up of
/// multi-channel single-hop radio networks").
///
/// The network offers C independent copies of the multiple access channel.
/// In each slot a station may transmit on at most one channel (and is
/// assumed to listen on the channel it acted on).  Wake-up completes at the
/// first slot in which ANY channel carries a solo transmission.

#include <cstdint>

#include "mac/types.hpp"

namespace wakeup::mac {

/// A station's move in one slot of a C-channel network.
struct ChannelAction {
  bool transmit = false;
  /// Channel transmitted on (if transmit) or listened to (if not);
  /// must be < channel count.
  std::uint32_t channel = 0;
};

}  // namespace wakeup::mac

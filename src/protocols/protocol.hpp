#pragma once

/// \file protocol.hpp
/// The protocol abstraction: a wake-up algorithm is a rule assigning every
/// station a transmission schedule as a function of its ID and wake time.
///
/// A `Protocol` is an immutable description shared by all stations (and all
/// simulation trials); `make_runtime` instantiates the per-station state.
/// Deterministic oblivious protocols (everything in the paper) ignore
/// feedback; the hook exists for the randomized/adaptive extensions.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "mac/types.hpp"

namespace wakeup::proto {

using mac::ChannelFeedback;
using mac::Slot;
using mac::StationId;

/// What a protocol needs from the environment — used by the Scenario
/// factory (core) and asserted by the simulator setup in benches.
struct Requirements {
  bool needs_global_clock = true;   ///< all paper protocols use the global clock
  bool needs_start_time = false;    ///< Scenario A: s known to every station
  bool needs_k = false;             ///< Scenario B: upper bound k known
  bool needs_collision_detection = false;  ///< beyond the paper's model
  bool randomized = false;          ///< uses coin flips
};

/// Per-station protocol execution state.
///
/// Contract: the owner calls `transmits(t)` exactly once for every slot
/// t >= the wake time passed to `make_runtime`, in strictly increasing
/// order, and (if it delivers feedback at all) calls `feedback(t, ...)`
/// after `transmits(t)` and before `transmits(t + 1)`.
class StationRuntime {
 public:
  virtual ~StationRuntime() = default;

  /// Does this station transmit in slot t?
  [[nodiscard]] virtual bool transmits(Slot t) = 0;

  /// What the station heard on the channel in slot t.
  virtual void feedback(Slot t, ChannelFeedback fb) {
    (void)t;
    (void)fb;
  }
};

/// Per-station execution state under *dynamic* traffic, where a station
/// serves a stream of packets instead of a single wake-up: each head-of-line
/// packet contends until delivered, then the next packet (if any) starts a
/// fresh contention.  Unlike StationRuntime, a DynamicStation lives for the
/// whole trial, so adaptive protocols can carry congestion estimates and
/// fairness state across packets.
///
/// Contract: the owner calls `packet_start(s)` whenever a new head-of-line
/// packet begins contending at slot s (including the first), then
/// `transmits(t)` exactly once for every slot t >= s while the station is
/// backlogged, in strictly increasing order, with `feedback(t, ...)` after
/// `transmits(t)`.  While the queue is empty no calls are made; the next
/// `packet_start` resumes at a strictly later slot.
class DynamicStation {
 public:
  virtual ~DynamicStation() = default;

  /// A new head-of-line packet starts contending at slot `start`.
  virtual void packet_start(Slot start) = 0;

  /// Does this station transmit in slot t?
  [[nodiscard]] virtual bool transmits(Slot t) = 0;

  /// What the station heard in slot t; `delivered` is true exactly when the
  /// slot's success was this station's own head-of-line packet (in which
  /// case fb == kSuccess and the owner follows up with `packet_start` if
  /// the queue is still non-empty).
  virtual void feedback(Slot t, ChannelFeedback fb, bool delivered) {
    (void)t;
    (void)fb;
    (void)delivered;
  }
};

/// Capability interface of deterministic, feedback-free ("oblivious")
/// protocols: the whole transmission schedule of a station is a pure
/// function of (station, wake slot), so it can be emitted as packed 64-slot
/// bit blocks and resolved word-parallel by the batch engines behind
/// `sim::Run` instead of one virtual call per slot per station.
///
/// The capability is channel-aware: a schedule spans `schedule_channels()`
/// channel lanes and pins every station to the single lane
/// `channel_lane(u, wake)` for its whole run.  Single-channel protocols are
/// the C = 1 specialization (the defaults — one lane, everyone on lane 0),
/// so the six paper protocols implement exactly the same interface as the
/// multichannel strategies and both feed the same word-parallel engines.
class ObliviousSchedule {
 public:
  virtual ~ObliviousSchedule() = default;

  // -- Channel lanes ----------------------------------------------------

  /// Number of channel lanes the schedule spans.  1 (default) is the
  /// paper's single multiple access channel; C > 1 is the multi-channel
  /// extension (mac/multichannel.hpp), where each slot resolves per lane.
  [[nodiscard]] virtual std::uint32_t schedule_channels() const { return 1; }

  /// The fixed channel lane station `u` acts on (transmits and listens)
  /// for its entire run.  Must be < schedule_channels() and constant over
  /// slots: a pure function of (u, wake), like schedule_word.  Oblivious
  /// *multichannel* protocols whose stations hop lanes mid-run do not fit
  /// this capability and stay on the slot interpreter.
  [[nodiscard]] virtual std::uint32_t channel_lane(StationId u, Slot wake) const {
    (void)u;
    (void)wake;
    return 0;
  }

  /// One 64-slot block of station `u`'s schedule starting at slot `from`:
  /// bit j covers slot from + j and must equal what a fresh
  /// `make_runtime(u, wake)` runtime would answer from `transmits` at that
  /// slot (for multichannel protocols: the `transmit` flag of `act`, which
  /// always targets `channel_lane(u, wake)`), for every covered slot >=
  /// wake.  Bits covering slots earlier than `wake` are unspecified —
  /// callers must mask them out (the StationRuntime contract never queries
  /// those slots either).  Requires wake >= 0 and from >= 0.
  [[nodiscard]] virtual std::uint64_t schedule_word(StationId u, Slot wake, Slot from) const = 0;

  /// One station of a `schedule_words` call.
  struct StationWake {
    StationId u;
    Slot wake;
  };

  /// The same 64-slot block for many stations at once: out[i] =
  /// schedule_word(stations[i].u, stations[i].wake, from), bit for bit
  /// (the bits below a station's wake stay unspecified).  Requires
  /// out.size() >= stations.size().  The batch engine asks once per resolve
  /// round for every live station.  The default loops schedule_word;
  /// schedules whose stations share per-slot set keys — the Scenario C
  /// matrix's columns follow global time, and the doubling schedules'
  /// families are indexed by global slot — override it to hash each key
  /// once per call, and their schedule_word is then the one-station call.
  /// Keys live only for the call: no schedule memoizes words or keys.
  /// Overrides work through 64-entry stack buffers, 64 stations at a time,
  /// and leave them uninitialized: each entry is written before it is
  /// read, and zeroing them would cost a one-station call (the batch
  /// engine's refill after a delivery) about a third of its time.
  virtual void schedule_words(std::span<const StationWake> stations, Slot from,
                              std::span<std::uint64_t> out) const {
    for (std::size_t i = 0; i < stations.size(); ++i) {
      out[i] = schedule_word(stations[i].u, stations[i].wake, from);
    }
  }

  /// Cost class of schedule_word, used by the auto dispatch to size its
  /// interpreted warm-up window.  True means a word costs a handful of bit
  /// operations (round_robin's strided bits) so batching is always worth
  /// it; false (default) means words walk per-slot tables or hashes, and
  /// very short runs are better interpreted.
  [[nodiscard]] virtual bool words_are_cheap() const { return false; }

 protected:
  /// schedule_word as the one-station call of schedule_words: how a
  /// schedule that overrides schedule_words keeps a single bit path.
  [[nodiscard]] std::uint64_t single_station_word(StationId u, Slot wake, Slot from) const {
    const StationWake station{u, wake};
    std::uint64_t word = 0;
    schedule_words({&station, 1}, from, {&word, 1});
    return word;
  }
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Stable identifier used in reports and the registry.
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual Requirements requirements() const { return {}; }

  /// Creates the execution state for station `u` woken at slot `wake`.
  [[nodiscard]] virtual std::unique_ptr<StationRuntime> make_runtime(StationId u,
                                                                     Slot wake) const = 0;

  /// Non-null iff the protocol is oblivious (deterministic and
  /// feedback-free), in which case the returned schedule must agree with
  /// `make_runtime` bit for bit.  Adaptive/randomized protocols keep the
  /// default and run through the slot-by-slot interpreter.
  [[nodiscard]] virtual const ObliviousSchedule* oblivious_schedule() const { return nullptr; }

  /// Creates cross-packet execution state for station `u` under dynamic
  /// traffic.  The default (nullptr) tells the simulator to restart a fresh
  /// `make_runtime(u, start)` per packet — exactly right for oblivious
  /// protocols and memoryless randomized ones.  Adaptive protocols override
  /// this to carry state (contention windows, fairness shares) across the
  /// packets of one trial.
  [[nodiscard]] virtual std::unique_ptr<DynamicStation> make_dynamic_station(StationId u) const {
    (void)u;
    return nullptr;
  }
};

/// Protocols are immutable and shared across stations and trials.
using ProtocolPtr = std::shared_ptr<const Protocol>;

}  // namespace wakeup::proto

#pragma once

/// Shared helpers for protocol-level tests.

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mac/wake_pattern.hpp"
#include "protocols/multichannel.hpp"
#include "protocols/protocol.hpp"
#include "sim/run.hpp"

namespace wakeup::test {

inline mac::WakePattern make_pattern(std::uint32_t n,
                                     std::initializer_list<mac::Arrival> arrivals) {
  return mac::WakePattern(n, std::vector<mac::Arrival>(arrivals));
}

/// Runs with an explicit slot budget (0 = auto) and no trace.
inline sim::SimResult run(const proto::Protocol& protocol, const mac::WakePattern& pattern,
                          mac::Slot max_slots = 0,
                          mac::FeedbackModel fb = mac::FeedbackModel::kNone) {
  sim::SimConfig config;
  config.max_slots = max_slots;
  config.feedback = fb;
  return sim::Run({.protocol = &protocol, .pattern = &pattern, .sim = config}).sim;
}

/// Collects the transmission schedule of one runtime over [wake, wake+len).
inline std::vector<bool> schedule_of(const proto::Protocol& protocol, mac::StationId u,
                                     mac::Slot wake, mac::Slot len) {
  auto rt = protocol.make_runtime(u, wake);
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(len));
  for (mac::Slot t = wake; t < wake + len; ++t) out.push_back(rt->transmits(t));
  return out;
}

/// A C-channel protocol whose station u repeats `actions[u]` in every slot
/// (stations past the end of the list repeat its last entry) and records
/// the feedback it last heard.
class FixedActionProtocol final : public proto::McProtocol {
 public:
  FixedActionProtocol(std::uint32_t channels, std::vector<mac::ChannelAction> actions)
      : channels_(channels), actions_(std::move(actions)) {}

  [[nodiscard]] std::string name() const override { return "fixed_action"; }
  [[nodiscard]] std::uint32_t channels() const override { return channels_; }
  [[nodiscard]] std::unique_ptr<proto::McStationRuntime> make_runtime(
      mac::StationId u, mac::Slot /*wake*/) const override {
    return std::make_unique<Runtime>(actions_[u < actions_.size() ? u : actions_.size() - 1],
                                     &heard_[u]);
  }
  /// What station u heard in the last slot it was given feedback for.
  [[nodiscard]] mac::ChannelFeedback last_heard(mac::StationId u) const { return heard_.at(u); }

 private:
  class Runtime final : public proto::McStationRuntime {
   public:
    Runtime(mac::ChannelAction action, mac::ChannelFeedback* heard)
        : action_(action), heard_(heard) {}
    [[nodiscard]] mac::ChannelAction act(mac::Slot /*t*/) override { return action_; }
    void feedback(mac::Slot /*t*/, mac::ChannelFeedback fb) override { *heard_ = fb; }

   private:
    mac::ChannelAction action_;
    mac::ChannelFeedback* heard_;
  };

  std::uint32_t channels_;
  std::vector<mac::ChannelAction> actions_;
  mutable std::map<mac::StationId, mac::ChannelFeedback> heard_;  // stable addresses
};

}  // namespace wakeup::test

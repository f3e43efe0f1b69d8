#include "mac/channel.hpp"

#include <gtest/gtest.h>

namespace wm = wakeup::mac;

TEST(ResolveSlot, OutcomeByTransmitterCount) {
  EXPECT_EQ(wm::resolve_slot(0), wm::SlotOutcome::kSilence);
  EXPECT_EQ(wm::resolve_slot(1), wm::SlotOutcome::kSuccess);
  EXPECT_EQ(wm::resolve_slot(2), wm::SlotOutcome::kCollision);
  EXPECT_EQ(wm::resolve_slot(100), wm::SlotOutcome::kCollision);
}

TEST(FeedbackFor, NoCollisionDetectionModel) {
  // The paper's model: silence and collision are indistinguishable.
  EXPECT_EQ(wm::feedback_for(wm::SlotOutcome::kSilence, wm::FeedbackModel::kNone),
            wm::ChannelFeedback::kNothing);
  EXPECT_EQ(wm::feedback_for(wm::SlotOutcome::kCollision, wm::FeedbackModel::kNone),
            wm::ChannelFeedback::kNothing);
  EXPECT_EQ(wm::feedback_for(wm::SlotOutcome::kSuccess, wm::FeedbackModel::kNone),
            wm::ChannelFeedback::kSuccess);
}

TEST(FeedbackFor, CollisionDetectionModel) {
  EXPECT_EQ(
      wm::feedback_for(wm::SlotOutcome::kSilence, wm::FeedbackModel::kCollisionDetection),
      wm::ChannelFeedback::kSilence);
  EXPECT_EQ(
      wm::feedback_for(wm::SlotOutcome::kCollision, wm::FeedbackModel::kCollisionDetection),
      wm::ChannelFeedback::kCollision);
  EXPECT_EQ(
      wm::feedback_for(wm::SlotOutcome::kSuccess, wm::FeedbackModel::kCollisionDetection),
      wm::ChannelFeedback::kSuccess);
}

TEST(SlotOutcome, ToString) {
  EXPECT_EQ(wm::to_string(wm::SlotOutcome::kSilence), "silence");
  EXPECT_EQ(wm::to_string(wm::SlotOutcome::kSuccess), "success");
  EXPECT_EQ(wm::to_string(wm::SlotOutcome::kCollision), "collision");
}

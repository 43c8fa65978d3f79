// Unit tests for src/net: message helpers and the Gateway's
// observer/filter/delivery semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "des/scheduler.h"
#include "net/gateway.h"
#include "net/message.h"
#include "rng/stream.h"

namespace mvsim::net {
namespace {

/// Keeps a recipient list alive for the rest of the test binary: a
/// message only borrows its list.
std::vector<DialedRecipient>& keep(std::vector<DialedRecipient> list) {
  static std::deque<std::vector<DialedRecipient>> kept;
  return kept.emplace_back(std::move(list));
}

MmsMessage infected_message(PhoneId sender, std::vector<DialedRecipient> recipients) {
  MmsMessage m;
  m.sender = sender;
  m.set_recipients(keep(std::move(recipients)));
  m.infected = true;
  return m;
}

TEST(MmsMessage, ValidRecipientCount) {
  MmsMessage m;
  m.set_recipients(keep({{1, true}, {0, false}, {2, true}, {0, false}}));
  EXPECT_EQ(m.valid_recipient_count(), 2u);
  EXPECT_EQ(MmsMessage{}.valid_recipient_count(), 0u);
}

TEST(MmsMessage, OneRecipientIsHeldInline) {
  std::vector<DialedRecipient> buffer{{7, true}};
  MmsMessage m;
  m.set_recipients(buffer);
  buffer[0] = {8, false};
  const MmsMessage copy = m;
  ASSERT_EQ(copy.recipients().size(), 1u);
  EXPECT_EQ(copy.recipients()[0].phone, 7u) << "a single recipient is copied, not borrowed";
  EXPECT_TRUE(copy.recipients()[0].valid);
  EXPECT_NE(copy.recipients().data(), m.recipients().data()) << "each copy owns its recipient";
}

class RecordingObserver final : public GatewayObserver {
 public:
  void on_submitted(const MmsMessage& message, SimTime) override {
    submitted.push_back(message.sequence);
  }
  void on_blocked(const MmsMessage& message, const char* blocked_by, SimTime) override {
    blocked.push_back(message.sequence);
    blocked_by_names.emplace_back(blocked_by);
  }
  std::vector<std::uint64_t> submitted;
  std::vector<std::uint64_t> blocked;
  std::vector<std::string> blocked_by_names;
};

class BlockInfectedFilter final : public DeliveryFilter {
 public:
  Decision inspect(const MmsMessage& message, SimTime) override {
    ++inspected;
    return message.infected ? Decision::kBlock : Decision::kDeliver;
  }
  const char* name() const override { return "block-infected"; }
  int inspected = 0;
};

class AllowAllFilter final : public DeliveryFilter {
 public:
  Decision inspect(const MmsMessage&, SimTime) override {
    ++inspected;
    return Decision::kDeliver;
  }
  const char* name() const override { return "allow-all"; }
  int inspected = 0;
};

struct GatewayFixture {
  des::Scheduler scheduler;
  rng::Stream stream{77};
  Gateway gateway{scheduler, stream, SimTime::minutes(1.0)};
  std::vector<std::pair<PhoneId, std::uint64_t>> delivered;

  GatewayFixture() {
    gateway.set_delivery_callback([this](PhoneId recipient, const MmsMessage& message) {
      delivered.emplace_back(recipient, message.sequence);
    });
  }
};

TEST(Gateway, AssignsMonotoneSequenceNumbers) {
  GatewayFixture fx;
  RecordingObserver obs;
  fx.gateway.add_observer(obs);
  fx.gateway.submit(infected_message(0, {{1, true}}));
  fx.gateway.submit(infected_message(0, {{2, true}}));
  fx.gateway.submit(infected_message(0, {{3, true}}));
  ASSERT_EQ(obs.submitted.size(), 3u);
  EXPECT_EQ(obs.submitted, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(Gateway, DeliversToAllValidRecipientsAfterDelay) {
  GatewayFixture fx;
  fx.gateway.submit(infected_message(0, {{1, true}, {2, true}, {9, false}}));
  EXPECT_TRUE(fx.delivered.empty()) << "delivery is asynchronous";
  fx.scheduler.run_to_quiescence();
  ASSERT_EQ(fx.delivered.size(), 2u);
  EXPECT_EQ(fx.delivered[0].first, 1u);
  EXPECT_EQ(fx.delivered[1].first, 2u);
  EXPECT_GT(fx.scheduler.now(), SimTime::zero()) << "transit took nonzero time";
}

TEST(Gateway, CountersTrackSubmissionsAndDeliveries) {
  GatewayFixture fx;
  fx.gateway.submit(infected_message(0, {{1, true}, {9, false}}));
  MmsMessage clean;
  clean.sender = 1;
  clean.set_recipient({2, true});
  clean.infected = false;
  fx.gateway.submit(std::move(clean));
  fx.scheduler.run_to_quiescence();
  const GatewayCounters& c = fx.gateway.counters();
  EXPECT_EQ(c.messages_submitted, 2u);
  EXPECT_EQ(c.infected_messages_submitted, 1u);
  EXPECT_EQ(c.messages_blocked, 0u);
  EXPECT_EQ(c.recipients_delivered, 2u);
  EXPECT_EQ(c.invalid_recipients_dropped, 1u);
}

TEST(Gateway, FilterBlocksAndObserversSeeIt) {
  GatewayFixture fx;
  RecordingObserver obs;
  BlockInfectedFilter filter;
  fx.gateway.add_observer(obs);
  fx.gateway.add_filter(filter);
  fx.gateway.submit(infected_message(0, {{1, true}}));
  fx.scheduler.run_to_quiescence();
  EXPECT_TRUE(fx.delivered.empty());
  EXPECT_EQ(obs.submitted.size(), 1u) << "observers see the submission before filtering";
  EXPECT_EQ(obs.blocked.size(), 1u);
  ASSERT_EQ(obs.blocked_by_names.size(), 1u);
  EXPECT_EQ(obs.blocked_by_names[0], "block-infected")
      << "on_blocked must name the filter that blocked";
  EXPECT_EQ(fx.gateway.counters().messages_blocked, 1u);
}

TEST(Gateway, FilterChainStopsAtFirstBlock) {
  GatewayFixture fx;
  BlockInfectedFilter first;
  AllowAllFilter second;
  fx.gateway.add_filter(first);
  fx.gateway.add_filter(second);
  fx.gateway.submit(infected_message(0, {{1, true}}));
  EXPECT_EQ(first.inspected, 1);
  EXPECT_EQ(second.inspected, 0) << "later filters must not run after a block";
}

TEST(Gateway, CleanMessagePassesBlockInfectedFilter) {
  GatewayFixture fx;
  BlockInfectedFilter filter;
  fx.gateway.add_filter(filter);
  MmsMessage clean;
  clean.sender = 0;
  clean.set_recipient({1, true});
  fx.gateway.submit(std::move(clean));
  fx.scheduler.run_to_quiescence();
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Gateway, AllInvalidRecipientsMeansNoDeliveryEvent) {
  GatewayFixture fx;
  fx.gateway.submit(infected_message(0, {{0, false}, {0, false}}));
  fx.scheduler.run_to_quiescence();
  EXPECT_TRUE(fx.delivered.empty());
  EXPECT_EQ(fx.gateway.counters().invalid_recipients_dropped, 2u);
  EXPECT_EQ(fx.gateway.counters().messages_submitted, 1u);
}

TEST(Gateway, NoCallbackIsTolerated) {
  des::Scheduler scheduler;
  rng::Stream stream(5);
  Gateway gateway(scheduler, stream, SimTime::minutes(1.0));
  gateway.submit(infected_message(0, {{1, true}}));
  scheduler.run_to_quiescence();
  EXPECT_EQ(gateway.counters().messages_submitted, 1u);
}

TEST(Gateway, RejectsNonPositiveDelay) {
  des::Scheduler scheduler;
  rng::Stream stream(6);
  EXPECT_THROW(Gateway(scheduler, stream, SimTime::zero()), std::invalid_argument);
}

TEST(Gateway, TransitKeepsItsOwnCopyOfARecipientList) {
  GatewayFixture fx;
  // The sender reuses one buffer for every message it builds.
  std::vector<DialedRecipient> buffer{{1, true}, {2, true}, {3, true}};
  MmsMessage m;
  m.sender = 0;
  m.infected = true;
  m.set_recipients(buffer);
  fx.gateway.submit(m);
  buffer.assign({{4, true}, {5, true}});
  m.set_recipients(buffer);
  fx.gateway.submit(m);
  buffer.assign({{9, true}, {9, true}});
  fx.scheduler.run_to_quiescence();
  std::vector<PhoneId> got;
  for (const auto& delivery : fx.delivered) got.push_back(delivery.first);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<PhoneId>{1, 2, 3, 4, 5}));
}

TEST(Gateway, ManyMessagesAllDeliveredOnce) {
  GatewayFixture fx;
  for (PhoneId i = 0; i < 100; ++i) {
    fx.gateway.submit(infected_message(0, {{i + 1, true}}));
  }
  fx.scheduler.run_to_quiescence();
  EXPECT_EQ(fx.delivered.size(), 100u);
  EXPECT_EQ(fx.gateway.counters().recipients_delivered, 100u);
}

}  // namespace
}  // namespace mvsim::net

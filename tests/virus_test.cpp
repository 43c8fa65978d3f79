// Unit tests for src/virus: profiles, targeting, and the sending
// process under budgets, policies and piggybacking.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "des/scheduler.h"
#include "net/gateway.h"
#include "phone/phone.h"
#include "phone/phone_table.h"
#include "rng/stream.h"
#include "virus/profile.h"
#include "virus/sender_table.h"
#include "virus/targeting.h"

namespace mvsim::virus {
namespace {

TEST(VirusProfile, PaperPresetsValidate) {
  for (const auto& profile : paper_virus_suite()) {
    EXPECT_TRUE(profile.validate().ok()) << profile.validate().to_string();
  }
}

TEST(VirusProfile, PresetParametersMatchPaper) {
  VirusProfile v1 = virus1();
  EXPECT_EQ(v1.targeting, TargetingMode::kContactList);
  EXPECT_EQ(v1.min_message_gap, SimTime::minutes(30.0));
  EXPECT_EQ(v1.recipients_per_message, 1u);
  EXPECT_EQ(v1.budget, BudgetKind::kPerReboot);
  EXPECT_EQ(v1.budget_limit, 30u);

  VirusProfile v2 = virus2();
  EXPECT_EQ(v2.min_message_gap, SimTime::minutes(1.0));
  EXPECT_EQ(v2.recipients_per_message, 100u);
  EXPECT_EQ(v2.budget, BudgetKind::kPerDayAligned);
  EXPECT_TRUE(v2.align_first_burst);
  EXPECT_TRUE(v2.one_pass_per_window);

  VirusProfile v3 = virus3();
  EXPECT_EQ(v3.targeting, TargetingMode::kRandomDialing);
  EXPECT_NEAR(v3.valid_number_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(v3.budget, BudgetKind::kUnlimited);

  VirusProfile v4 = virus4();
  EXPECT_EQ(v4.dormancy, SimTime::hours(1.0));
  EXPECT_EQ(v4.trigger, SendTrigger::kPiggyback);
  EXPECT_EQ(v4.min_message_gap, SimTime::minutes(30.0));
}

TEST(VirusProfile, ValidationCatchesBadFields) {
  VirusProfile p = virus1();
  p.recipients_per_message = 0;
  EXPECT_FALSE(p.validate().ok());

  p = virus1();
  p.budget_limit = 0;
  EXPECT_FALSE(p.validate().ok());

  p = virus3();
  p.valid_number_fraction = 0.0;
  EXPECT_FALSE(p.validate().ok());

  p = virus1();
  p.min_message_gap = SimTime::zero();
  p.extra_gap_mean = SimTime::zero();
  EXPECT_FALSE(p.validate().ok()) << "zero-delay send loop must be rejected";

  p = virus1();
  p.align_first_burst = true;  // requires kPerDayAligned
  EXPECT_FALSE(p.validate().ok());

  p = virus4();
  p.legit_traffic_gap_mean = SimTime::zero();
  EXPECT_FALSE(p.validate().ok());

  p = virus1();
  p.name.clear();
  EXPECT_FALSE(p.validate().ok());
}

TEST(ContactListTargeter, CoversWholeListBeforeRepeating) {
  rng::Stream stream(11);
  std::vector<net::PhoneId> contacts{1, 2, 3, 4, 5};
  ContactListTargeter targeter(contacts, stream);
  std::vector<DialedRecipient> t;
  std::set<net::PhoneId> seen;
  for (int i = 0; i < 5; ++i) {
    targeter.next_targets(1, stream, t);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_TRUE(t[0].valid);
    seen.insert(t[0].phone);
  }
  EXPECT_EQ(seen.size(), 5u) << "one full pass touches every contact exactly once";
}

TEST(ContactListTargeter, BatchNeverExceedsContactList) {
  rng::Stream stream(12);
  std::vector<net::PhoneId> contacts{1, 2, 3};
  ContactListTargeter targeter(contacts, stream);
  std::vector<DialedRecipient> t;
  targeter.next_targets(100, stream, t);
  EXPECT_EQ(t.size(), 3u);
  std::set<net::PhoneId> unique;
  for (const auto& r : t) unique.insert(r.phone);
  EXPECT_EQ(unique.size(), 3u) << "no duplicate recipients within one message";
}

TEST(ContactListTargeter, CyclesIndefinitely) {
  rng::Stream stream(13);
  std::vector<net::PhoneId> contacts{1, 2};
  ContactListTargeter targeter(contacts, stream);
  std::vector<DialedRecipient> t;
  for (int i = 0; i < 50; ++i) {
    targeter.next_targets(1, stream, t);
    ASSERT_EQ(t.size(), 1u);
  }
}

TEST(ContactListTargeter, EmptyContactListYieldsNothing) {
  rng::Stream stream(14);
  ContactListTargeter targeter(std::span<net::PhoneId>{}, stream);
  std::vector<DialedRecipient> t{{1, true}};
  targeter.next_targets(5, stream, t);
  EXPECT_TRUE(t.empty());
}

TEST(RandomDialTargeter, ValidFractionRoughlyRespected) {
  rng::Stream stream(15);
  RandomDialTargeter targeter(1000, 1.0 / 3.0);
  int valid = 0;
  constexpr int kN = 30000;
  std::vector<DialedRecipient> targets;
  targeter.next_targets(0, kN, stream, targets);
  ASSERT_EQ(targets.size(), static_cast<std::size_t>(kN));
  for (const auto& t : targets) valid += t.valid ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(valid) / kN, 1.0 / 3.0, 0.02);
}

TEST(RandomDialTargeter, NeverDialsSelfValidly) {
  rng::Stream stream(16);
  RandomDialTargeter targeter(10, 1.0);
  std::vector<DialedRecipient> targets;
  targeter.next_targets(7, 5000, stream, targets);
  for (const auto& t : targets) {
    ASSERT_TRUE(t.valid);
    ASSERT_NE(t.phone, 7u);
    ASSERT_LT(t.phone, 10u);
  }
}

TEST(RandomDialTargeter, RejectsBadParameters) {
  EXPECT_THROW(RandomDialTargeter(1, 0.5), std::invalid_argument);
  EXPECT_THROW(RandomDialTargeter(10, 0.0), std::invalid_argument);
  EXPECT_THROW(RandomDialTargeter(10, 1.5), std::invalid_argument);
}

// ---- SenderTable (the paper's per-phone sending process) ----

using Contacts = std::vector<net::PhoneId>;

class GapPolicy final : public net::OutgoingMmsPolicy {
 public:
  bool is_blocked(net::PhoneId, SimTime) const override { return blocked; }
  SimTime forced_min_gap(net::PhoneId, SimTime) const override { return gap; }
  bool blocked = false;
  SimTime gap = SimTime::zero();
};

struct SendingFixture {
  des::Scheduler scheduler;
  rng::Stream virus_stream{91};
  rng::Stream user_stream{92};
  rng::Stream net_stream{93};
  net::Gateway gateway{scheduler, net_stream, SimTime::minutes(1.0)};
  phone::ConsentModel consent{0.468};
  phone::PhoneEnvironment phone_env;
  GapPolicy policy;
  SendingEnvironment env;

  std::unique_ptr<phone::PhoneTable> phones;

  SendingFixture() {
    phone_env.scheduler = &scheduler;
    phone_env.user_stream = &user_stream;
    phone_env.consent = &consent;
    phones = std::make_unique<phone::PhoneTable>(1, &phone_env);
    phones->set_susceptible(0, true);
    env.scheduler = &scheduler;
    env.virus_stream = &virus_stream;
    env.gateway = &gateway;
    env.policies = {&policy};
  }
};

TEST(SendingProcess, SendsImmediatelyAndRespectsMinGap) {
  SendingFixture fx;
  VirusProfile p = virus1();
  p.extra_gap_mean = SimTime::zero();  // exact cadence for the assertion
  fx.phones->force_infect(0);
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{1, 2, 3});
  fx.scheduler.run_until(SimTime::minutes(89.0));
  // Sends at t=0, 30, 60 — the t=90 send hasn't happened yet.
  EXPECT_EQ(senders.messages_sent(0), 3u);
}

TEST(SendingProcess, PerRebootBudgetPausesUntilReboot) {
  SendingFixture fx;
  VirusProfile p = virus1();
  p.extra_gap_mean = SimTime::zero();
  p.budget_limit = 3;
  fx.phones->force_infect(0);
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{1, 2, 3, 4});
  fx.scheduler.run_until(SimTime::hours(8.0));
  // Budget 3 per reboot; reboot intervals are uniform in [18 h, 30 h],
  // so by 8 h the process has sent exactly its first allotment.
  EXPECT_EQ(senders.messages_sent(0), 3u);
  fx.scheduler.run_until(SimTime::hours(40.0));
  EXPECT_GE(senders.messages_sent(0), 6u) << "the first reboot refilled the budget";
}

TEST(SendingProcess, OnePassPerWindowCoversListOncePerDay) {
  SendingFixture fx;
  VirusProfile p = virus2();  // 100 recipients/message, one pass per day
  p.extra_gap_mean = SimTime::zero();
  fx.phones->force_infect(0);

  std::uint64_t recipient_copies = 0;
  class CopyCounter final : public net::GatewayObserver {
   public:
    explicit CopyCounter(std::uint64_t& out) : out_(&out) {}
    void on_submitted(const net::MmsMessage& m, SimTime) override {
      *out_ += m.recipients().size();
    }
    std::uint64_t* out_;
  } counter(recipient_copies);
  fx.gateway.add_observer(counter);

  std::vector<net::PhoneId> contacts(80);
  for (net::PhoneId i = 0; i < 80; ++i) contacts[i] = i + 1;
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, contacts);

  fx.scheduler.run_until(SimTime::hours(23.9));
  // The pass over 80 contacts rides the full 30-message budget: ~3
  // recipients per message, all sent near the start of the period.
  EXPECT_GE(senders.messages_sent(0), 27u);
  EXPECT_LE(senders.messages_sent(0), 30u);
  EXPECT_EQ(recipient_copies, 80u) << "each contact addressed exactly once on day 0";
  fx.scheduler.run_until(SimTime::hours(47.9));
  EXPECT_EQ(recipient_copies, 160u) << "exactly one more pass on day 1";
}

TEST(SendingProcess, OnePassPerWindowWithSmallBudgetStopsAtListEnd) {
  SendingFixture fx;
  VirusProfile p = virus2();
  p.budget_limit = 3;  // pass spread over 3 messages: 3 + 3 + 1 contacts
  p.extra_gap_mean = SimTime::zero();
  fx.phones->force_infect(0);
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{1, 2, 3, 4, 5, 6, 7});
  fx.scheduler.run_until(SimTime::hours(12.0));
  EXPECT_EQ(senders.messages_sent(0), 3u);
  fx.scheduler.run_until(SimTime::hours(26.0));
  EXPECT_EQ(senders.messages_sent(0), 6u) << "next pass after the period boundary";
}

TEST(SendingProcess, PerDayAlignedBudgetResetsAtBoundary) {
  SendingFixture fx;
  VirusProfile p = virus2();
  p.recipients_per_message = 1;
  p.budget_limit = 5;
  p.one_pass_per_window = false;  // budget semantics under test, not pass capping
  p.extra_gap_mean = SimTime::zero();
  fx.phones->force_infect(0);
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{1, 2, 3});
  fx.scheduler.run_until(SimTime::hours(23.0));
  EXPECT_EQ(senders.messages_sent(0), 5u) << "first day's allotment only";
  fx.scheduler.run_until(SimTime::hours(25.0));
  EXPECT_EQ(senders.messages_sent(0), 10u) << "second allotment right after midnight";
}

TEST(SendingProcess, AlignFirstBurstHoldsUntilBoundary) {
  SendingFixture fx;
  VirusProfile p = virus2();
  p.recipients_per_message = 1;
  p.budget_limit = 5;
  p.one_pass_per_window = false;
  p.extra_gap_mean = SimTime::zero();
  // Infect mid-day: the first burst must wait for the next boundary.
  fx.scheduler.schedule_at(SimTime::hours(10.0), [&] { fx.phones->force_infect(0); });
  fx.scheduler.run_until(SimTime::hours(10.0));
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{1, 2, 3});
  fx.scheduler.run_until(SimTime::hours(23.9));
  EXPECT_EQ(senders.messages_sent(0), 0u);
  fx.scheduler.run_until(SimTime::hours(24.5));
  EXPECT_EQ(senders.messages_sent(0), 5u);
}

TEST(SendingProcess, UnalignedStartSendsImmediately) {
  SendingFixture fx;
  VirusProfile p = virus2();
  p.align_first_burst = false;
  p.one_pass_per_window = false;
  p.recipients_per_message = 1;
  p.budget_limit = 5;
  p.extra_gap_mean = SimTime::zero();
  fx.scheduler.schedule_at(SimTime::hours(10.0), [&] { fx.phones->force_infect(0); });
  fx.scheduler.run_until(SimTime::hours(10.0));
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{1, 2, 3});
  fx.scheduler.run_until(SimTime::hours(11.0));
  EXPECT_EQ(senders.messages_sent(0), 5u);
}

TEST(SendingProcess, BlockedPolicyStopsPermanently) {
  SendingFixture fx;
  fx.policy.blocked = true;
  VirusProfile p = virus1();
  fx.phones->force_infect(0);
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{1, 2});
  fx.scheduler.run_until(SimTime::days(2.0));
  EXPECT_EQ(senders.messages_sent(0), 0u);
  EXPECT_FALSE(senders.running(0));
}

TEST(SendingProcess, ForcedGapSlowsCadence) {
  SendingFixture fx;
  fx.policy.gap = SimTime::minutes(120.0);
  VirusProfile p = virus1();
  p.extra_gap_mean = SimTime::zero();
  fx.phones->force_infect(0);
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{1, 2, 3});
  fx.scheduler.run_until(SimTime::minutes(239.0));
  // 2 h forced gap dominates the 30 min virus gap: sends at 0 and 120.
  EXPECT_EQ(senders.messages_sent(0), 2u);
}

TEST(SendingProcess, PatchStopsAtNextAttempt) {
  SendingFixture fx;
  VirusProfile p = virus1();
  p.extra_gap_mean = SimTime::zero();
  fx.phones->force_infect(0);
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{1, 2});
  // The patch path stops the phone's sender, as EngineSlice does when
  // a patch lands on an infected phone.
  fx.scheduler.schedule_at(SimTime::minutes(45.0), [&] {
    fx.phones->apply_patch(0);
    senders.stop(0);
  });
  fx.scheduler.run_until(SimTime::days(1.0));
  EXPECT_EQ(senders.messages_sent(0), 2u) << "t=0 and t=30 only; patched before t=60";
  EXPECT_FALSE(senders.running(0));
}

TEST(SendingProcess, PiggybackWaitsForDormancyAndLegitTraffic) {
  SendingFixture fx;
  VirusProfile p = virus4();
  fx.phones->force_infect(0);
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{1, 2, 3});
  fx.scheduler.run_until(SimTime::hours(1.0));
  EXPECT_EQ(senders.messages_sent(0), 0u) << "dormant for the first hour";
  fx.scheduler.run_until(SimTime::days(2.0));
  EXPECT_GT(senders.messages_sent(0), 5u);
  // Mean legit gap is 2 h => roughly 12/day; allow a wide band.
  EXPECT_LT(senders.messages_sent(0), 40u);
}

TEST(SendingProcess, PiggybackHonorsMinGap) {
  SendingFixture fx;
  VirusProfile p = virus4();
  p.dormancy = SimTime::zero();
  p.legit_traffic_gap_mean = SimTime::minutes(1.0);  // chatty user
  p.min_message_gap = SimTime::minutes(30.0);
  fx.phones->force_infect(0);
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{1, 2, 3});
  fx.scheduler.run_until(SimTime::hours(10.0));
  // Despite ~600 legit events, the 30-min gap caps sends at ~20.
  EXPECT_LE(senders.messages_sent(0), 21u);
  EXPECT_GE(senders.messages_sent(0), 15u);
}

TEST(SendingProcess, StopCancelsFutureSends) {
  SendingFixture fx;
  VirusProfile p = virus3();
  fx.phones->force_infect(0);
  SenderTable senders(fx.env, p, 0, 1, 100);
  senders.start(0, {});
  fx.scheduler.run_until(SimTime::minutes(30.0));
  auto sent_before = senders.messages_sent(0);
  EXPECT_GT(sent_before, 10u);
  senders.stop(0);
  fx.scheduler.run_until(SimTime::hours(5.0));
  EXPECT_EQ(senders.messages_sent(0), sent_before);
}

TEST(SendingProcess, EmptyContactListStopsQuietly) {
  SendingFixture fx;
  VirusProfile p = virus1();
  fx.phones->force_infect(0);
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{});
  fx.scheduler.run_until(SimTime::days(1.0));
  EXPECT_EQ(senders.messages_sent(0), 0u);
  EXPECT_FALSE(senders.running(0));
}

TEST(SendingProcess, StartTwiceThrows) {
  SendingFixture fx;
  VirusProfile p = virus1();
  fx.phones->force_infect(0);
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, Contacts{1});
  EXPECT_THROW(senders.start(0, Contacts{1}), std::logic_error);
}

TEST(SendingProcess, Virus2MessageCarriesWholeContactList) {
  SendingFixture fx;
  std::size_t largest_recipient_list = 0;
  fx.gateway.set_delivery_callback([](net::PhoneId, const net::MmsMessage&) {});
  class CountObserver final : public net::GatewayObserver {
   public:
    explicit CountObserver(std::size_t& out) : out_(&out) {}
    void on_submitted(const net::MmsMessage& m, SimTime) override {
      *out_ = std::max(*out_, m.recipients().size());
    }
    std::size_t* out_;
  } observer(largest_recipient_list);
  fx.gateway.add_observer(observer);

  VirusProfile p = virus2();
  p.align_first_burst = false;
  p.one_pass_per_window = false;  // exercise the raw multi-recipient capability
  fx.phones->force_infect(0);
  std::vector<net::PhoneId> contacts(80);
  for (net::PhoneId i = 0; i < 80; ++i) contacts[i] = i + 1;
  SenderTable senders(fx.env, p, 0, 1, 1);
  senders.start(0, contacts);
  fx.scheduler.run_until(SimTime::hours(1.0));
  EXPECT_EQ(largest_recipient_list, 80u)
      << "up to 100 recipients per message covers the whole 80-contact list";
}

}  // namespace
}  // namespace mvsim::virus

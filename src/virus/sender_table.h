// The dissemination half of every infected phone (paper §4.1).
//
// A SenderTable holds one compact row per infected phone and drives its
// outgoing infected MMS messages under every constraint the paper
// describes:
//   * the virus's own minimum gap between messages,
//   * its self-imposed sending budget (per reboot / per aligned day),
//   * an initial dormancy period (Virus 4),
//   * piggybacking on legitimate traffic instead of an own timer,
//   * provider-side dissemination policies: a blocked phone
//     (blacklist) stops for good; a flagged phone (monitoring) has a
//     forced minimum gap merged into the virus's own gap.
// Patching an infected phone (immunization) halts its row: whoever
// applies the patch calls stop() (EngineSlice::on_patch_applied), so
// the send path never reads the phone table.
//
// Layout: the environment, profile and targeting mode are stored once
// per table, not per phone. A row (one 64-byte cache line: two
// pending-event handles, last send, budget counters, the contact-list
// cursor) is appended when a phone is infected, and a per-phone slot
// index (4 bytes over the table's phone range) finds it. Contact-list
// viruses copy the phone's contacts into a chunked arena the table
// owns, where the targeter permutes them in place; messages are built
// in one recipient buffer the table reuses. So starting a phone
// allocates nothing beyond amortized row and arena growth, and a send
// allocates nothing. Rows and arena chunks live as long as the table.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "des/scheduler.h"
#include "net/gateway.h"
#include "rng/stream.h"
#include "trace/trace.h"
#include "virus/profile.h"
#include "virus/targeting.h"

namespace mvsim::virus {

/// Shared (per-replication) wiring for every sender.
struct SendingEnvironment {
  des::Scheduler* scheduler = nullptr;
  rng::Stream* virus_stream = nullptr;
  net::Gateway* gateway = nullptr;
  /// Dissemination-point mechanisms, consulted before every send.
  std::vector<net::OutgoingMmsPolicy*> policies;
  /// Event capture (reboots), or nullptr when tracing is off.
  trace::TraceBuffer* trace = nullptr;
};

class SenderTable {
 public:
  /// Senders for phones [first_phone, first_phone + phone_count);
  /// random-dialing viruses dial into [0, population). `env` and
  /// `profile` must outlive the table; the table reads `env` by
  /// reference, so policies registered later still apply. Throws
  /// std::invalid_argument on an incomplete environment or an invalid
  /// profile.
  SenderTable(const SendingEnvironment& env, const VirusProfile& profile, PhoneId first_phone,
              PhoneId phone_count, PhoneId population);
  /// Cancels every running sender's pending events.
  ~SenderTable();
  SenderTable(const SenderTable&) = delete;
  SenderTable& operator=(const SenderTable&) = delete;

  /// Begins disseminating from `host`, at infection time; `contacts`
  /// is its contact list (read only by contact-list viruses). Throws
  /// std::logic_error if `host` already started.
  void start(PhoneId host, std::span<const PhoneId> contacts);

  /// Permanently halts `host` (patch landed, phone blacklisted). No-op
  /// for a phone that never started or already stopped.
  void stop(PhoneId host);

  [[nodiscard]] bool running(PhoneId host) const;
  [[nodiscard]] std::uint64_t messages_sent(PhoneId host) const;

 private:
  using RowId = std::uint32_t;

  /// One cache line: a send touches a single line of sender state.
  struct alignas(64) Row {
    /// The pending send attempt (own timer) or legitimate-traffic event
    /// (piggyback); a phone has one or the other.
    des::EventHandle send;
    des::EventHandle reboot;
    SimTime last_send = SimTime::infinity();  // meaningful once has_sent
    ContactListTargeter contacts;             // contact-list viruses only
    PhoneId host = 0;
    std::uint32_t sent_in_window = 0;
    std::uint32_t targets_sent_in_window = 0;  // for one_pass_per_window
    std::int32_t window_index = -1;            // for kPerDayAligned
    std::uint32_t messages_sent = 0;
    bool running = false;
    bool has_sent = false;
    bool waiting_for_reboot = false;
  };

  static_assert(sizeof(Row) == 64);

  /// Phones per arena chunk (64 KiB); a longer list gets its own chunk.
  static constexpr std::size_t kArenaChunk = std::size_t{1} << 14;

  [[nodiscard]] const Row* find(PhoneId host) const;
  std::span<PhoneId> copy_contacts(std::span<const PhoneId> contacts);
  [[nodiscard]] std::size_t universe_size(const Row& row) const;

  void stop_row(RowId row);
  void attempt_send(RowId row);
  void send_now(RowId row);
  void schedule_attempt_at(RowId row, SimTime at);
  void schedule_next_active_attempt(RowId row);
  void on_reboot(RowId row);
  void schedule_reboot(RowId row);
  void on_legit_traffic(RowId row);
  void schedule_legit_traffic(RowId row, SimTime delay);

  /// Largest minimum gap any authority imposes right now (virus's own
  /// floor or monitoring's forced wait).
  [[nodiscard]] SimTime effective_min_gap(PhoneId host) const;
  /// True when the current budget window has messages left; when false,
  /// `resume_at` is set for aligned windows (reboot windows resume via
  /// the reboot event instead).
  [[nodiscard]] bool budget_available(Row& row, SimTime now, SimTime& resume_at) const;
  [[nodiscard]] bool blocked_by_policy(PhoneId host, SimTime now) const;

  const SendingEnvironment& env_;
  const VirusProfile& profile_;
  des::Scheduler& scheduler_;
  rng::Stream& stream_;
  std::optional<RandomDialTargeter> dialer_;  // random-dialing viruses only
  PhoneId first_phone_;

  std::vector<Row> rows_;
  /// Row of each phone in the range, 1-based; 0 = not started.
  std::vector<RowId> slot_;
  std::vector<DialedRecipient> recipients_;  // the message being built
  std::vector<std::unique_ptr<PhoneId[]>> arena_;
  PhoneId* arena_next_ = nullptr;
  std::size_t arena_left_ = 0;
};

}  // namespace mvsim::virus

#include "virus/sender_table.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mvsim::virus {

namespace {
const SendingEnvironment& checked(const SendingEnvironment& env) {
  if (env.scheduler == nullptr || env.virus_stream == nullptr || env.gateway == nullptr) {
    throw std::invalid_argument("SenderTable: environment is incomplete");
  }
  return env;
}
}  // namespace

SenderTable::SenderTable(const SendingEnvironment& env, const VirusProfile& profile,
                         PhoneId first_phone, PhoneId phone_count, PhoneId population)
    : env_(checked(env)),
      profile_(profile),
      scheduler_(*env.scheduler),
      stream_(*env.virus_stream),
      first_phone_(first_phone),
      slot_(phone_count, 0) {
  profile.validate().throw_if_invalid();
  if (profile.targeting == TargetingMode::kRandomDialing) {
    dialer_.emplace(population, profile.valid_number_fraction);
  }
}

SenderTable::~SenderTable() {
  for (RowId row = 0; row < rows_.size(); ++row) stop_row(row);
}

const SenderTable::Row* SenderTable::find(PhoneId host) const {
  const RowId slot = slot_[host - first_phone_];
  return slot == 0 ? nullptr : &rows_[slot - 1];
}

bool SenderTable::running(PhoneId host) const {
  const Row* row = find(host);
  return row != nullptr && row->running;
}

std::uint64_t SenderTable::messages_sent(PhoneId host) const {
  const Row* row = find(host);
  return row == nullptr ? 0 : row->messages_sent;
}

std::span<PhoneId> SenderTable::copy_contacts(std::span<const PhoneId> contacts) {
  const std::size_t n = contacts.size();
  PhoneId* dst = nullptr;
  if (n > kArenaChunk) {
    arena_.push_back(std::make_unique_for_overwrite<PhoneId[]>(n));
    dst = arena_.back().get();
  } else {
    if (n > arena_left_) {
      arena_.push_back(std::make_unique_for_overwrite<PhoneId[]>(kArenaChunk));
      arena_next_ = arena_.back().get();
      arena_left_ = kArenaChunk;
    }
    dst = arena_next_;
    arena_next_ += n;
    arena_left_ -= n;
  }
  std::copy(contacts.begin(), contacts.end(), dst);
  return {dst, n};
}

std::size_t SenderTable::universe_size(const Row& row) const {
  return dialer_ ? RandomDialTargeter::universe_size() : row.contacts.universe_size();
}

void SenderTable::start(PhoneId host, std::span<const PhoneId> contacts) {
  RowId& slot = slot_[host - first_phone_];
  if (slot != 0) throw std::logic_error("SenderTable::start: phone already started");
  rows_.emplace_back();
  slot = static_cast<RowId>(rows_.size());
  const RowId row = slot - 1;
  Row& r = rows_[row];
  r.host = host;
  r.running = true;
  // The contact list is shuffled before any other draw of the phone.
  if (!dialer_) r.contacts = ContactListTargeter(copy_contacts(contacts), stream_);

  if (profile_.budget == BudgetKind::kPerReboot) schedule_reboot(row);

  if (profile_.trigger == SendTrigger::kPiggyback) {
    // The virus only ever transmits alongside the phone's legitimate
    // MMS activity, and not before the dormancy period has elapsed.
    schedule_legit_traffic(row,
                           profile_.dormancy + stream_.exponential(profile_.legit_traffic_gap_mean));
  } else {
    SimTime first = scheduler_.now() + profile_.dormancy;
    if (profile_.align_first_burst) {
      // Virus 2 semantics: bursts happen at the start of each aligned
      // period, so a phone infected mid-period waits for the next
      // boundary before its first burst.
      double windows = std::ceil(first / profile_.budget_window);
      first = max(first, profile_.budget_window * windows);
    }
    schedule_attempt_at(row, first);
  }
}

void SenderTable::stop(PhoneId host) {
  const RowId slot = slot_[host - first_phone_];
  if (slot != 0) stop_row(slot - 1);
}

void SenderTable::stop_row(RowId row) {
  Row& r = rows_[row];
  if (!r.running) return;
  r.running = false;
  scheduler_.cancel(r.send);
  scheduler_.cancel(r.reboot);
}

SimTime SenderTable::effective_min_gap(PhoneId host) const {
  SimTime gap = profile_.min_message_gap;
  const SimTime now = scheduler_.now();
  for (net::OutgoingMmsPolicy* policy : env_.policies) {
    gap = max(gap, policy->forced_min_gap(host, now));
  }
  return gap;
}

bool SenderTable::blocked_by_policy(PhoneId host, SimTime now) const {
  for (net::OutgoingMmsPolicy* policy : env_.policies) {
    if (policy->is_blocked(host, now)) return true;
  }
  return false;
}

bool SenderTable::budget_available(Row& row, SimTime now, SimTime& resume_at) const {
  switch (profile_.budget) {
    case BudgetKind::kUnlimited:
      return true;
    case BudgetKind::kPerReboot:
      if (row.sent_in_window < profile_.budget_limit) return true;
      resume_at = SimTime::infinity();  // resumed by the reboot event
      return false;
    case BudgetKind::kPerDayAligned: {
      auto window = static_cast<std::int32_t>(std::floor(now / profile_.budget_window));
      if (window != row.window_index) {
        row.window_index = window;
        row.sent_in_window = 0;
        row.targets_sent_in_window = 0;
      }
      resume_at = profile_.budget_window * static_cast<double>(window + 1);
      if (row.sent_in_window >= profile_.budget_limit) return false;
      if (profile_.one_pass_per_window && row.targets_sent_in_window >= universe_size(row)) {
        // Whole contact list covered this period: wait for the next one.
        return false;
      }
      return true;
    }
  }
  return true;
}

void SenderTable::schedule_attempt_at(RowId row, SimTime at) {
  Row& r = rows_[row];
  scheduler_.cancel(r.send);
  r.send = scheduler_.schedule_at(max(at, scheduler_.now()), des::EventType::kVirusSend,
                                  [this, row] { attempt_send(row); });
}

void SenderTable::schedule_next_active_attempt(RowId row) {
  SimTime gap = effective_min_gap(rows_[row].host);
  if (profile_.extra_gap_mean > SimTime::zero()) {
    gap += stream_.exponential(profile_.extra_gap_mean);
  }
  schedule_attempt_at(row, scheduler_.now() + gap);
}

void SenderTable::attempt_send(RowId row) {
  Row& r = rows_[row];
  if (!r.running) return;
  const SimTime now = scheduler_.now();

  // A blacklisted phone has its MMS service cut (paper §3.3).
  if (blocked_by_policy(r.host, now)) {
    stop_row(row);
    return;
  }

  // Monitoring may have imposed a forced wait after this attempt was
  // scheduled; re-check the gap against the *current* policy state.
  if (r.has_sent) {
    SimTime earliest = r.last_send + effective_min_gap(r.host);
    if (now < earliest) {
      schedule_attempt_at(row, earliest);
      return;
    }
  }

  SimTime resume_at = SimTime::infinity();
  if (!budget_available(r, now, resume_at)) {
    if (profile_.budget == BudgetKind::kPerReboot) {
      r.waiting_for_reboot = true;  // the reboot event will resume us
    } else {
      schedule_attempt_at(row, resume_at);
    }
    return;
  }

  send_now(row);
  if (rows_[row].running) schedule_next_active_attempt(row);
}

void SenderTable::send_now(RowId row) {
  Row& r = rows_[row];
  std::uint32_t request = profile_.recipients_per_message;
  if (profile_.one_pass_per_window) {
    // Spread one pass over the contact list across the period's whole
    // message budget (the paper's Virus 2 sends its full allotment of
    // 30 messages each day, so a message carries ~list/30 recipients,
    // "up to 100" for hub phones), and never re-address a contact
    // within the period.
    std::size_t universe = universe_size(r);
    std::size_t remaining =
        universe > r.targets_sent_in_window ? universe - r.targets_sent_in_window : 0;
    std::uint32_t budget_left =
        profile_.budget_limit > r.sent_in_window ? profile_.budget_limit - r.sent_in_window : 1;
    auto per_message = static_cast<std::uint32_t>(
        (remaining + budget_left - 1) / std::max<std::uint32_t>(budget_left, 1));
    request = std::clamp<std::uint32_t>(per_message, 1, request);
    if (remaining < request) request = static_cast<std::uint32_t>(remaining);
    if (request == 0) return;  // defensive; budget_available gates this
  }
  if (dialer_) {
    dialer_->next_targets(r.host, request, stream_, recipients_);
  } else {
    r.contacts.next_targets(request, stream_, recipients_);
  }
  if (recipients_.empty()) {
    // A phone with an empty contact list has nobody to infect; the
    // sender stays alive only in the sense that it never sends.
    stop_row(row);
    return;
  }
  const auto message_recipient_count = static_cast<std::uint32_t>(recipients_.size());
  net::MmsMessage message;
  message.sender = r.host;
  message.set_recipients(recipients_);
  message.infected = true;
  env_.gateway->submit(message);

  Row& sent = rows_[row];  // observers may have started other phones
  sent.last_send = scheduler_.now();
  sent.has_sent = true;
  ++sent.messages_sent;
  ++sent.sent_in_window;
  sent.targets_sent_in_window += message_recipient_count;
}

void SenderTable::schedule_reboot(RowId row) {
  // "The time between phone reboots is on average approximately 24
  // hours": modeled as uniform in [0.75, 1.25] x the window. A phone's
  // reboot cycle is routine (nightly charge, habitual power-cycling),
  // not memoryless — and a heavy-tailed cycle would let the per-reboot
  // budget refill several times in one day, which the paper's
  // "30 messages per day"-style prose clearly excludes.
  const SimTime delay =
      stream_.uniform(profile_.budget_window * 0.75, profile_.budget_window * 1.25);
  rows_[row].reboot = scheduler_.schedule_after(delay, des::EventType::kVirusReboot,
                                                [this, row] { on_reboot(row); });
}

void SenderTable::on_reboot(RowId row) {
  Row& r = rows_[row];
  if (!r.running) return;
  if (env_.trace != nullptr) {
    trace::Event event;
    event.time = scheduler_.now();
    event.kind = trace::EventKind::kReboot;
    event.phone = r.host;
    env_.trace->record(std::move(event));
  }
  r.sent_in_window = 0;
  if (r.waiting_for_reboot) {
    r.waiting_for_reboot = false;
    // Resume sending, still honoring the inter-message gap.
    SimTime earliest = r.has_sent ? r.last_send + effective_min_gap(r.host) : scheduler_.now();
    schedule_attempt_at(row, earliest);
  }
  schedule_reboot(row);
}

void SenderTable::schedule_legit_traffic(RowId row, SimTime delay) {
  rows_[row].send = scheduler_.schedule_after(delay, des::EventType::kVirusLegitTraffic,
                                              [this, row] { on_legit_traffic(row); });
}

void SenderTable::on_legit_traffic(RowId row) {
  Row& r = rows_[row];
  if (!r.running) return;
  const SimTime now = scheduler_.now();

  if (blocked_by_policy(r.host, now)) {
    stop_row(row);
    return;
  }

  // Ride this legitimate message only if the virus's gap (and any
  // monitoring-forced wait) has elapsed and budget remains; otherwise
  // skip it and wait for the next legitimate send.
  bool gap_ok = !r.has_sent || now >= r.last_send + effective_min_gap(r.host);
  SimTime resume_at = SimTime::infinity();
  bool budget_ok = budget_available(r, now, resume_at);
  if (gap_ok && budget_ok) send_now(row);
  if (rows_[row].running) {
    schedule_legit_traffic(row, stream_.exponential(profile_.legit_traffic_gap_mean));
  }
}

}  // namespace mvsim::virus

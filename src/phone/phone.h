// Per-phone state vocabulary (paper §4.1).
//
// A phone receives infected MMS messages into its inbox; after a random
// read delay the user decides whether to accept the attachment using
// the ConsentModel; an accepted attachment infects a susceptible,
// unpatched phone. That receive/decide state machine lives in
// phone::PhoneTable (phone/phone_table.h) as a struct-of-arrays over
// the whole population; the "sending" half of an infected phone lives
// in virus::SenderTable — the split mirrors the paper's description
// of the phone submodel as separate receive and send functionalities.
// This header holds the shared vocabulary: health states, infection
// provenance, and the per-replication environment.
#pragma once

#include <cstdint>

#include "des/scheduler.h"
#include "net/message.h"
#include "phone/consent.h"
#include "rng/stream.h"
#include "util/sim_time.h"

namespace mvsim::phone {

using net::PhoneId;

enum class HealthState : std::uint8_t {
  kHealthy,    ///< uninfected, may be susceptible or not
  kInfected,   ///< virus installed and (unless stopped) disseminating
  kImmunized,  ///< patched before infection; can never be infected
};

[[nodiscard]] const char* to_string(HealthState state);

/// How an infection reached a phone.
enum class InfectionChannel : std::uint8_t {
  kNone,       ///< not infected (or provenance untracked)
  kMms,        ///< accepted an infected MMS attachment
  kBluetooth,  ///< proximity push (never transits the gateway)
  kSeed,       ///< patient zero, force-infected at t=0
};

[[nodiscard]] const char* to_string(InfectionChannel channel);

/// Provenance of one infection attempt: who sent the carrier, which
/// gateway message it was, over which channel. Purely observational —
/// infection mechanics never read it. It rides inside the pending
/// decision event and is delivered to the InfectionListener at the
/// moment of infection; the population table does not store it per
/// phone (that would cost ~24 dense bytes/phone for a value consumed
/// exactly once, by the trace hook).
struct InfectionSource {
  PhoneId sender = net::kInvalidPhoneId;
  std::uint64_t message = net::kInvalidMessageId;
  InfectionChannel channel = InfectionChannel::kNone;
};

/// Receives the exactly-once notification that a phone transitioned to
/// kInfected. A direct interface instead of the former per-population
/// std::function: the simulation is the only subscriber, the call is
/// on the hot path, and a devirtualizable single target beats a
/// type-erased closure there.
class InfectionListener {
 public:
  virtual ~InfectionListener() = default;
  virtual void on_phone_infected(PhoneId id, const InfectionSource& source) = 0;
};

/// Shared environment for all phones of one simulation replication.
struct PhoneEnvironment {
  des::Scheduler* scheduler = nullptr;
  rng::Stream* user_stream = nullptr;  ///< randomness of user behavior
  const ConsentModel* consent = nullptr;
  /// Mean of the exponential delay between a message reaching the inbox
  /// and the user deciding on it (paper: "how quickly a phone user
  /// reads a new MMS message"; the constant is not given — see DESIGN.md).
  SimTime read_delay_mean = SimTime::minutes(60.0);
  /// Past this many received infected messages, per-message acceptance
  /// probability is negligible and decisions are no longer simulated.
  int decision_cutoff = 40;
  /// Notified exactly once when a phone transitions to kInfected; may
  /// be null (tests, teardown).
  InfectionListener* listener = nullptr;
};

}  // namespace mvsim::phone

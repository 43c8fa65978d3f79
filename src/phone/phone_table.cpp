#include "phone/phone_table.h"

#include <stdexcept>

namespace mvsim::phone {

namespace {

void check_env(const PhoneEnvironment* env) {
  if (env == nullptr || env->scheduler == nullptr || env->user_stream == nullptr ||
      env->consent == nullptr) {
    throw std::invalid_argument("PhoneTable: environment is incomplete");
  }
}

}  // namespace

PhoneTable::PhoneTable(PhoneId population, const PhoneEnvironment* env)
    : PhoneTable(population, std::vector<const PhoneEnvironment*>{env}, {0, population}) {}

PhoneTable::PhoneTable(PhoneId population, std::vector<const PhoneEnvironment*> envs,
                       std::vector<PhoneId> bounds)
    : env_(nullptr), envs_(std::move(envs)), env_bounds_(std::move(bounds)) {
  if (envs_.empty() || env_bounds_.size() != envs_.size() + 1 || env_bounds_.front() != 0 ||
      env_bounds_.back() != population) {
    throw std::invalid_argument("PhoneTable: shard bounds do not cover the population");
  }
  for (std::size_t s = 0; s + 1 < env_bounds_.size(); ++s) {
    if (env_bounds_[s] >= env_bounds_[s + 1]) {
      throw std::invalid_argument("PhoneTable: shard bounds must be strictly increasing");
    }
  }
  for (const PhoneEnvironment* env : envs_) check_env(env);
  if (envs_.size() == 1) env_ = envs_.front();  // the serial fast path
  flags_.assign(population, 0);
  received_.assign(population, 0);
  pending_.assign(population, 0);
}

void PhoneTable::set_susceptible(PhoneId id, bool susceptible) {
  if (susceptible) {
    flags_[id] |= kSusceptibleBit;
  } else {
    flags_[id] &= static_cast<std::uint8_t>(~kSusceptibleBit);
  }
}

void PhoneTable::receive_infected_message(PhoneId id, InfectionSource source) {
  const PhoneEnvironment* env = env_for(id);
  ++received_[id];
  // Past the cutoff the acceptance probability is ~2^-cutoff: skip the
  // decision event entirely. This keeps long runs of aggressive viruses
  // (which re-spam the same contacts daily) linear in messages, not in
  // scheduled decisions.
  if (received_[id] > static_cast<std::uint32_t>(env->decision_cutoff)) return;
  ++pending_[id];
  // Bind the message's index now: the consent curve depends on how many
  // infected messages had been received when *this* one arrived.
  const int message_index = static_cast<int>(received_[id]);
  SimTime read_delay = env->user_stream->exponential(env->read_delay_mean);
  // The environment is looked up again when the read fires, which keeps
  // the capture inside EventFn's inline buffer.
  env->scheduler->schedule_after(read_delay, des::EventType::kPhoneRead,
                                 [this, id, message_index, source] {
    --pending_[id];
    const PhoneEnvironment* owner = env_for(id);
    double p = owner->consent->acceptance_probability(message_index);
    if (owner->user_stream->bernoulli(p)) {
      try_infect(id, source);
    }
  });
}

bool PhoneTable::try_infect(PhoneId id, const InfectionSource& source) {
  std::uint8_t flags = flags_[id];
  if (static_cast<HealthState>(flags & kStateMask) != HealthState::kHealthy) {
    return false;  // already infected or immunized
  }
  if ((flags & kSusceptibleBit) == 0) return false;  // wrong platform for this virus
  if ((flags & kPatchedBit) != 0) return false;      // defensive; patched implies immunized
  flags_[id] = static_cast<std::uint8_t>((flags & ~kStateMask) |
                                         static_cast<std::uint8_t>(HealthState::kInfected));
  const PhoneEnvironment* env = env_for(id);
  if (env->listener != nullptr) env->listener->on_phone_infected(id, source);
  return true;
}

void PhoneTable::apply_patch(PhoneId id) {
  if ((flags_[id] & kPatchedBit) != 0) return;
  flags_[id] |= kPatchedBit;
  if (static_cast<HealthState>(flags_[id] & kStateMask) == HealthState::kHealthy) {
    flags_[id] = static_cast<std::uint8_t>((flags_[id] & ~kStateMask) |
                                           static_cast<std::uint8_t>(HealthState::kImmunized));
  }
  // Infected phones stay infected; the caller stops their sender.
}

bool PhoneTable::force_infect(PhoneId id) {
  return try_infect(id, {net::kInvalidPhoneId, net::kInvalidMessageId, InfectionChannel::kSeed});
}

}  // namespace mvsim::phone

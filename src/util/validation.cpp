#include "util/validation.h"

#include <stdexcept>

namespace mvsim {

void ValidationErrors::add(std::string message) {
  problems_.push_back(context_ + ": " + std::move(message));
}

bool ValidationErrors::require(bool ok_flag, const char* message) {
  if (!ok_flag) add(message);
  return ok_flag;
}

void ValidationErrors::merge(const ValidationErrors& sub) {
  problems_.insert(problems_.end(), sub.problems_.begin(), sub.problems_.end());
}

std::string ValidationErrors::to_string() const {
  std::string out;
  for (const auto& p : problems_) {
    if (!out.empty()) out += "; ";
    out += p;
  }
  return out;
}

void ValidationErrors::throw_if_invalid() const {
  if (!ok()) throw std::invalid_argument(to_string());
}

}  // namespace mvsim

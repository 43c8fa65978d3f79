// Config-validation helpers.
//
// mvsim configs are plain aggregates; each carries a `validate()` that
// returns every problem found (not just the first) so a user fixing a
// scenario file sees the full list at once.
#pragma once

#include <string>
#include <vector>

namespace mvsim {

/// Accumulates human-readable validation problems for one config object.
class ValidationErrors {
 public:
  /// `context` prefixes every message, e.g. "VirusProfile".
  explicit ValidationErrors(std::string context) : context_(std::move(context)) {}

  void add(std::string message);
  /// `require(ok, msg)` records `msg` when `ok` is false; returns `ok`.
  /// The message is a C string so a passing check allocates nothing.
  bool require(bool ok, const char* message);

  /// Merge problems found by a sub-config's validate().
  void merge(const ValidationErrors& sub);

  [[nodiscard]] bool ok() const { return problems_.empty(); }
  [[nodiscard]] const std::vector<std::string>& problems() const { return problems_; }
  /// All problems joined with "; " — empty string when ok().
  [[nodiscard]] std::string to_string() const;

  /// Throws std::invalid_argument with to_string() unless ok().
  void throw_if_invalid() const;

 private:
  std::string context_;
  std::vector<std::string> problems_;
};

}  // namespace mvsim

#pragma once
/// \file parity.hpp
/// \brief Verdict parity against the paper-faithful reference
/// (Dictionary + Matcher) and the failure accounting built on it.
///
/// Every served job is either a match (the wire verdict is field-
/// identical to the reference), a mismatch, or missing (no verdict before
/// the run's deadline — a lost UDP datagram ends up here, never silently
/// dropped). jobs_failed_ratio = (missing + mismatched) / attempted.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "ingest/wire_format.hpp"

namespace perfbench {

enum class VerdictOutcome { kMatch, kMissing, kMismatch };

VerdictOutcome check_verdict(const efd::ingest::WireVerdict& expected,
                             const std::optional<efd::ingest::WireVerdict>& got);

/// One line naming every field that differs (empty for a match).
std::string describe_difference(const efd::ingest::WireVerdict& expected,
                                const efd::ingest::WireVerdict& got);

struct ParityTally {
  static constexpr std::size_t kMaxExamples = 5;

  std::size_t attempted = 0;
  std::size_t matched = 0;
  std::size_t missing = 0;
  std::size_t mismatched = 0;
  std::vector<std::string> examples;  ///< first kMaxExamples mismatch descriptions

  void add(VerdictOutcome outcome);
  /// Adds \p other's counts (and examples, up to the first few).
  void merge(const ParityTally& other);
  std::size_t failed() const noexcept { return missing + mismatched; }
  /// failed / attempted (0 when nothing was attempted).
  double failed_ratio() const noexcept;
};

/// Macro F-score of \p predicted application names against \p truth.
double macro_f_score(const std::vector<std::string>& truth,
                     const std::vector<std::string>& predicted);

}  // namespace perfbench

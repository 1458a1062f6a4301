#include "parity.hpp"

#include "ml/metrics.hpp"

namespace perfbench {

VerdictOutcome check_verdict(const efd::ingest::WireVerdict& expected,
                             const std::optional<efd::ingest::WireVerdict>& got) {
  if (!got.has_value()) return VerdictOutcome::kMissing;
  return *got == expected ? VerdictOutcome::kMatch : VerdictOutcome::kMismatch;
}

std::string describe_difference(const efd::ingest::WireVerdict& expected,
                                const efd::ingest::WireVerdict& got) {
  std::string out;
  const auto field = [&out](const char* name, const std::string& want,
                            const std::string& have) {
    if (want == have) return;
    if (!out.empty()) out += ", ";
    out += std::string(name) + " " + have + " (reference " + want + ")";
  };
  field("recognized", std::to_string(expected.recognized),
        std::to_string(got.recognized));
  field("matched", std::to_string(expected.matched), std::to_string(got.matched));
  field("fingerprints", std::to_string(expected.fingerprints),
        std::to_string(got.fingerprints));
  field("application", expected.application, got.application);
  field("label", expected.label, got.label);
  return out;
}

void ParityTally::add(VerdictOutcome outcome) {
  ++attempted;
  switch (outcome) {
    case VerdictOutcome::kMatch:
      ++matched;
      break;
    case VerdictOutcome::kMissing:
      ++missing;
      break;
    case VerdictOutcome::kMismatch:
      ++mismatched;
      break;
  }
}

void ParityTally::merge(const ParityTally& other) {
  attempted += other.attempted;
  matched += other.matched;
  missing += other.missing;
  mismatched += other.mismatched;
  for (const std::string& example : other.examples) {
    if (examples.size() < kMaxExamples) examples.push_back(example);
  }
}

double ParityTally::failed_ratio() const noexcept {
  if (attempted == 0) return 0.0;
  return static_cast<double>(failed()) / static_cast<double>(attempted);
}

double macro_f_score(const std::vector<std::string>& truth,
                     const std::vector<std::string>& predicted) {
  if (truth.empty()) return 0.0;
  return efd::ml::macro_f1(truth, predicted);
}

}  // namespace perfbench

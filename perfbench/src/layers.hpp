#pragma once
/// \file layers.hpp
/// \brief The traced pass: the serve path assembled in this process from
/// the same public pieces `efd_cli serve` uses, with decorators around
/// the transports (SampleSource::poll) and their reply channels
/// (VerdictSink::deliver_many), driven by the same client code; then
/// direct traced calls into each layer's public functions on the
/// workload's own data. Every span is kept in memory and written out
/// once the pass ends.

#include <map>
#include <string>

#include "parity.hpp"
#include "workload.hpp"

namespace perfbench {

struct LayerReport {
  std::map<std::string, double> metrics;
  ParityTally parity;  ///< the traced pass's own verdict parity
};

/// Runs the in-process serve path twice, first with the decorators and
/// client spans off, then traced, and returns the per-layer metrics
/// (everything that is not a counter scraped from the spawned server).
/// trace.overhead_ratio is the traced pass's whole-run p50 verdict
/// latency over the untraced in-process pass's.
LayerReport run_traced_pass(const WorkloadSpec& spec, const Inputs& inputs,
                            const Plan& plan, const std::string& run_dir,
                            const std::string& trace_path);

}  // namespace perfbench

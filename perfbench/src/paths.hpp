// Path labelling from engine counter deltas: a row is labelled with the
// path the counters say the messages took, never with the backend the
// caller asked for (a forced backend still sends small messages eagerly).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "tune/counters.hpp"

namespace perfbench {

/// Reported path labels. vmsplice_writev (the Fig. 3 two-copy baseline,
/// never chosen by the policy) is folded into "vmsplice".
inline constexpr int kPathLabels = 6;
inline constexpr std::array<const char*, kPathLabels> kPathNames = {
    "fastbox", "eager", "default", "vmsplice", "knem", "cma"};

using PathHist = std::array<std::uint64_t, nemo::tune::Counters::kPaths>;

/// Label index for a Counters::path_hist slot.
inline int path_label(int slot) {
  using C = nemo::tune::Counters;
  switch (slot) {
    case C::kPathFastbox: return 0;
    case C::kPathEager: return 1;
    case 0: return 2;  // kDefaultShm: the two-copy ring.
    case 1:            // kVmsplice
    case 2: return 3;  // kVmspliceWritev
    case 3: return 4;  // kKnem
    case 4: return 5;  // kCma
  }
  return -1;
}

/// Messages per label between two path_hist snapshots.
inline std::array<std::uint64_t, kPathLabels> path_counts(
    const PathHist& before, const PathHist& after) {
  std::array<std::uint64_t, kPathLabels> out{};
  for (int s = 0; s < nemo::tune::Counters::kPaths; ++s) {
    int l = path_label(s);
    if (l >= 0) out[static_cast<std::size_t>(l)] += after[s] - before[s];
  }
  return out;
}

/// Every label that carried traffic, joined with "+" in label order
/// ("none" when nothing was sent).
inline std::string path_label_of(
    const std::array<std::uint64_t, kPathLabels>& counts) {
  std::string out;
  for (int l = 0; l < kPathLabels; ++l) {
    if (counts[static_cast<std::size_t>(l)] == 0) continue;
    if (!out.empty()) out += "+";
    out += kPathNames[static_cast<std::size_t>(l)];
  }
  return out.empty() ? "none" : out;
}

}  // namespace perfbench

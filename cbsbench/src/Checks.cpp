//===- Checks.cpp - Output checks independent of the path under test -----===//
//
// Part of the CBSVM benchmark.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "profiling/ProfileCodec.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

using namespace cbs;
using namespace cbsbench;

namespace {

using EdgeMap = std::map<std::pair<uint32_t, uint32_t>, uint64_t>;

EdgeMap edgeMap(const prof::DCGSnapshot &S, uint64_t &Total) {
  EdgeMap M;
  Total = 0;
  for (const auto &[E, W] : S.sortedEdges()) {
    M[{E.Site, E.Callee}] += W;
    Total += W;
  }
  return M;
}

std::string edgeName(const std::pair<uint32_t, uint32_t> &E) {
  return "site " + std::to_string(E.first) + " -> method " +
         std::to_string(E.second);
}

} // namespace

double cbsbench::paperOverlap(const prof::DCGSnapshot &A,
                              const prof::DCGSnapshot &B) {
  uint64_t TotalA = 0, TotalB = 0;
  EdgeMap MA = edgeMap(A, TotalA), MB = edgeMap(B, TotalB);
  if (MA.empty() && MB.empty())
    return 100.0;
  if (MA.empty() || MB.empty())
    return 0.0;
  double Sum = 0;
  for (const auto &[E, WA] : MA) {
    auto It = MB.find(E);
    if (It == MB.end())
      continue;
    double PctA = 100.0 * static_cast<double>(WA) / static_cast<double>(TotalA);
    double PctB =
        100.0 * static_cast<double>(It->second) / static_cast<double>(TotalB);
    Sum += std::min(PctA, PctB);
  }
  return Sum;
}

std::string cbsbench::checkOverlap(const prof::DCGSnapshot &Sampled,
                                   const prof::DCGSnapshot &Perfect,
                                   double Reported) {
  double Recomputed = paperOverlap(Sampled, Perfect);
  if (std::fabs(Recomputed - Reported) <= 1e-9)
    return "";
  return "overlap " + std::to_string(Reported) +
         " differs from the recomputed " + std::to_string(Recomputed);
}

std::string cbsbench::checkSubset(const prof::DCGSnapshot &Sampled,
                                  const prof::DCGSnapshot &Perfect) {
  uint64_t TS = 0, TP = 0;
  EdgeMap MS = edgeMap(Sampled, TS), MP = edgeMap(Perfect, TP);
  for (const auto &[E, W] : MS)
    if (MP.find(E) == MP.end())
      return "sampled edge " + edgeName(E) + " (weight " + std::to_string(W) +
             ") never executed in the exhaustive run";
  return "";
}

std::string cbsbench::checkTotalWeight(const prof::DCGSnapshot &Perfect,
                                       uint64_t CallsExecuted) {
  uint64_t Total = 0;
  edgeMap(Perfect, Total);
  if (Total == CallsExecuted)
    return "";
  return "exhaustive profile weight " + std::to_string(Total) +
         " != calls executed " + std::to_string(CallsExecuted);
}

std::string cbsbench::checkSameEdges(const prof::DCGSnapshot &Want,
                                     const prof::DCGSnapshot &Got) {
  uint64_t TW = 0, TG = 0;
  EdgeMap MW = edgeMap(Want, TW), MG = edgeMap(Got, TG);
  for (const auto &[E, W] : MW) {
    auto It = MG.find(E);
    uint64_t G = It == MG.end() ? 0 : It->second;
    if (G != W)
      return "edge " + edgeName(E) + " has weight " + std::to_string(G) +
             ", expected " + std::to_string(W);
  }
  for (const auto &[E, W] : MG)
    if (MW.find(E) == MW.end())
      return "unexpected edge " + edgeName(E) + " (weight " +
             std::to_string(W) + ")";
  return "";
}

std::string cbsbench::checkCodecRoundTrip(const prof::DCGSnapshot &P) {
  prof::ProfileCodec::Decoded D =
      prof::ProfileCodec::decode(prof::ProfileCodec::encode(P));
  if (!D.ok())
    return "codec round trip failed to decode: " + D.Error;
  std::string Diff = checkSameEdges(P, *D.Graph);
  return Diff.empty() ? "" : "codec round trip: " + Diff;
}

std::string cbsbench::checkSameOutput(std::vector<int64_t> Got,
                                      std::vector<int64_t> Want,
                                      bool AnyOrder) {
  if (AnyOrder) {
    std::sort(Got.begin(), Got.end());
    std::sort(Want.begin(), Want.end());
  }
  size_t N = std::min(Got.size(), Want.size());
  for (size_t I = 0; I != N; ++I)
    if (Got[I] != Want[I])
      return std::string(AnyOrder ? "sorted " : "") + "output value " +
             std::to_string(I) + " is " + std::to_string(Got[I]) +
             ", the reference run printed " + std::to_string(Want[I]);
  if (Got.size() != Want.size())
    return "printed " + std::to_string(Got.size()) +
           " values, the reference run printed " + std::to_string(Want.size());
  return "";
}

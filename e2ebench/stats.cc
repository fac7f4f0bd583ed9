#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <sstream>

namespace sesemi::e2ebench {
namespace {

/// 1-based nearest rank of the `pct` percentile among `n` samples. The small
/// epsilon keeps a rank that is exact in decimal (e.g. 99% of 1000) from
/// rounding up through binary floating point.
size_t NearestRank(size_t n, double pct) {
  if (n == 0) return 0;
  const double exact = pct / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double PercentileSorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  return sorted[NearestRank(sorted.size(), pct) - 1];
}

size_t SamplesBeyond(size_t n, double pct) { return n - NearestRank(n, pct); }

double SupportedPercentile(size_t n, double wanted) {
  if (n <= kMinBeyond) return 0;
  if (SamplesBeyond(n, wanted) >= kMinBeyond) return wanted;
  // Rank n - kMinBeyond exactly: the highest rank that keeps kMinBeyond
  // samples beyond it.
  return 100.0 * static_cast<double>(n - kMinBeyond) / static_cast<double>(n);
}

Summary Summarize(std::vector<double> samples) {
  Summary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.p50 = PercentileSorted(samples, 50.0);
  summary.tail_pct = SupportedPercentile(samples.size(), kTailPercentile);
  if (summary.tail_pct > 0) {
    summary.tail = PercentileSorted(samples, summary.tail_pct);
    summary.beyond = SamplesBeyond(samples.size(), summary.tail_pct);
  }
  return summary;
}

WindowedSummary SummarizeWindows(const std::vector<std::vector<double>>& windows) {
  WindowedSummary out;
  out.windows = windows.size();
  if (windows.empty()) return out;
  out.tail_pct = kTailPercentile;
  out.min_count = windows.front().size();
  for (const std::vector<double>& w : windows) {
    out.count += w.size();
    out.min_count = std::min(out.min_count, w.size());
    out.tail_pct = std::min(out.tail_pct, SupportedPercentile(w.size(), kTailPercentile));
  }
  std::vector<double> p50s, tails;
  for (std::vector<double> w : windows) {
    std::sort(w.begin(), w.end());
    p50s.push_back(PercentileSorted(w, 50.0));
    if (out.tail_pct > 0) tails.push_back(PercentileSorted(w, out.tail_pct));
  }
  std::sort(p50s.begin(), p50s.end());
  std::sort(tails.begin(), tails.end());
  out.p50 = PercentileSorted(p50s, 50.0);
  out.tail = PercentileSorted(tails, 50.0);
  return out;
}

double Attainment(const std::vector<double>& ok_latencies, size_t sent, double limit) {
  if (sent == 0) return 0;
  const auto met = std::count_if(ok_latencies.begin(), ok_latencies.end(),
                                 [limit](double latency) { return latency <= limit; });
  return static_cast<double>(met) / static_cast<double>(sent);
}

const char* ComponentName(Component component) {
  switch (component) {
    case kSendLag: return "gen.send_lag";
    case kSeal: return "client.seal";
    case kRoute: return "fnpacker.route";
    case kSubmit: return "cluster.submit";
    case kQueueWait: return "sched.queue_wait";
    case kSemirt: return "semirt.total";
    case kOpen: return "client.open";
    case kUnattributed: return "unattributed";
    case kNumComponents: break;
  }
  return "?";
}

const char* SemirtPartName(SemirtPart part) {
  switch (part) {
    case kKeyFetch: return "semirt.key_fetch";
    case kModelLoad: return "semirt.model_load";
    case kRuntimeInit: return "semirt.runtime_init";
    case kExecute: return "semirt.execute";
    case kSemirtOther: return "semirt.other";
    case kNumSemirtParts: break;
  }
  return "?";
}

void CloseBreakdown(Breakdown* breakdown) {
  int64_t attributed = 0;
  for (int c = 0; c < kUnattributed; ++c) attributed += breakdown->part[c];
  breakdown->part[kUnattributed] = breakdown->e2e - attributed;
  int64_t stages = 0;
  for (int s = 0; s < kSemirtOther; ++s) stages += breakdown->semirt[s];
  breakdown->semirt[kSemirtOther] = breakdown->part[kSemirt] - stages;
}

double BandRow::mean_e2e_us() const {
  return count == 0 ? 0 : static_cast<double>(e2e) / 1e3 / static_cast<double>(count);
}

double BandRow::mean_us(Component component) const {
  return count == 0 ? 0
                    : static_cast<double>(part[component]) / 1e3 /
                          static_cast<double>(count);
}

double BandRow::mean_us(SemirtPart p) const {
  return count == 0 ? 0
                    : static_cast<double>(semirt[p]) / 1e3 / static_cast<double>(count);
}

bool BandRow::Adds() const {
  return std::accumulate(part.begin(), part.end(), int64_t{0}) == e2e &&
         std::accumulate(semirt.begin(), semirt.end(), int64_t{0}) == part[kSemirt];
}

BandRow Band(const std::vector<Breakdown>& requests, const std::string& name,
             double lo_pct, double hi_pct) {
  BandRow row;
  row.name = name;
  if (requests.empty()) return row;
  std::vector<double> e2e;
  e2e.reserve(requests.size());
  for (const Breakdown& r : requests) e2e.push_back(static_cast<double>(r.e2e));
  std::sort(e2e.begin(), e2e.end());
  const double lo = lo_pct <= 0 ? e2e.front() : PercentileSorted(e2e, lo_pct);
  const double hi = PercentileSorted(e2e, hi_pct);
  for (const Breakdown& r : requests) {
    const auto value = static_cast<double>(r.e2e);
    if (value < lo || value > hi) continue;
    row.count++;
    row.e2e += r.e2e;
    for (int c = 0; c < kNumComponents; ++c) row.part[c] += r.part[c];
    for (int s = 0; s < kNumSemirtParts; ++s) row.semirt[s] += r.semirt[s];
  }
  return row;
}

Series ParsePrometheus(const std::string& text) {
  Series series;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The value follows the last space; label values may contain spaces
    // only inside quotes, which precede the closing brace.
    const size_t brace = line.rfind('}');
    const size_t space = line.find(' ', brace == std::string::npos ? 0 : brace);
    if (space == std::string::npos || space == 0) continue;
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) continue;
    series[line.substr(0, space)] = parsed;
  }
  return series;
}

double SumSeries(const Series& series, const std::string& name) {
  double sum = 0;
  // Keys sharing `name` as a prefix sort together; stop at the first key
  // whose metric name differs.
  for (auto it = series.lower_bound(name); it != series.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, name.size(), name) != 0) break;
    const std::string rest = key.substr(name.size());
    if (!rest.empty() && rest[0] != '{') continue;  // a longer metric name
    sum += it->second;
  }
  return sum;
}

double Delta(const Series& before, const Series& after, const std::string& name) {
  return SumSeries(after, name) - SumSeries(before, name);
}

}  // namespace sesemi::e2ebench

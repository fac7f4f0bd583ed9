#ifndef SESEMI_E2EBENCH_STATS_H_
#define SESEMI_E2EBENCH_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file
/// The arithmetic behind every number the end-to-end benchmark prints:
/// percentiles with the sample-count rule, SLO attainment, the per-request
/// layer decomposition and its band means, and counter deltas read from the
/// metrics registry's Prometheus text. Kept free of the workloads so the unit
/// tests exercise exactly the code the benchmark reports with.

namespace sesemi::e2ebench {

/// A tail percentile is reported only where at least this many samples lie
/// beyond it; with fewer samples the reported percentile is lowered.
inline constexpr size_t kMinBeyond = 10;

/// The tail percentile every summary asks for.
inline constexpr double kTailPercentile = 99.0;

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with at
/// least `pct`% of the samples at or below it. 0 for an empty input.
double PercentileSorted(const std::vector<double>& sorted, double pct);

/// Samples strictly beyond the nearest-rank `pct` percentile of `n` samples.
size_t SamplesBeyond(size_t n, double pct);

/// The highest percentile <= `wanted` that leaves at least kMinBeyond samples
/// beyond it, or 0 when `n` <= kMinBeyond (no tail percentile is supported).
double SupportedPercentile(size_t n, double wanted);

/// Median and tail of one latency population, with the counts behind them.
struct Summary {
  size_t count = 0;
  double p50 = 0;
  double tail_pct = 0;  ///< the percentile `tail` reports (<= the one asked for)
  double tail = 0;
  size_t beyond = 0;    ///< samples strictly beyond the tail percentile
};
Summary Summarize(std::vector<double> samples);

/// A run split into equal sub-windows: the median over sub-windows of each
/// sub-window's median and tail. One burst or stall then moves one
/// sub-window's figures, not the run's. Every sub-window's tail is taken at
/// the same percentile: the lowest one every sub-window supports.
struct WindowedSummary {
  size_t windows = 0;
  size_t count = 0;       ///< samples over all sub-windows
  size_t min_count = 0;   ///< samples in the sparsest sub-window
  double p50 = 0;
  double tail_pct = 0;
  double tail = 0;
};
WindowedSummary SummarizeWindows(const std::vector<std::vector<double>>& windows);

/// Share of `sent` requests that completed OK within `limit`. `ok_latencies`
/// holds one latency per OK completion; every request sent that is not among
/// them (failed, refused, or wrong output) counts as a miss.
double Attainment(const std::vector<double>& ok_latencies, size_t sent, double limit);

/// Components of one request's end-to-end latency, in the order the request
/// meets them. `kUnattributed` is the residual: dispatch, container launch on
/// a cold start, the future handoff and harvest delay.
enum Component {
  kSendLag,      ///< gen.send_lag: due time -> generator starts the send
  kSeal,         ///< client.seal: ModelUser::BuildRequest
  kRoute,        ///< fnpacker.route: FnPackerRouter::Route (cold_churn only)
  kSubmit,       ///< cluster.submit: ClusterDataplane::InvokeAsync returns
  kQueueWait,    ///< sched.queue_wait: InvocationResult::queue_wait
  kSemirt,       ///< semirt.total: InvocationResult::timings.total
  kOpen,         ///< client.open: ModelUser::DecryptResult
  kUnattributed,
  kNumComponents
};
const char* ComponentName(Component component);

/// Split of semirt.total; kSemirtOther is what total leaves after the four
/// stages (TCS wait, ecall entry, stage bookkeeping).
enum SemirtPart { kKeyFetch, kModelLoad, kRuntimeInit, kExecute, kSemirtOther, kNumSemirtParts };
const char* SemirtPartName(SemirtPart part);

/// One request's decomposition in integer nanoseconds, so band sums are exact.
struct Breakdown {
  int64_t e2e = 0;
  std::array<int64_t, kNumComponents> part{};
  std::array<int64_t, kNumSemirtParts> semirt{};
};

/// Fill the residuals: part[kUnattributed] = e2e - the other components, and
/// semirt[kSemirtOther] = part[kSemirt] - the four stages.
void CloseBreakdown(Breakdown* breakdown);

/// Sums of every component over one set of requests.
struct BandRow {
  std::string name;
  size_t count = 0;
  int64_t e2e = 0;
  std::array<int64_t, kNumComponents> part{};
  std::array<int64_t, kNumSemirtParts> semirt{};
  double mean_e2e_us() const;
  double mean_us(Component component) const;
  double mean_us(SemirtPart part) const;
  /// True when the component sums equal the e2e sum exactly.
  bool Adds() const;
};

/// Sum the requests whose e2e lies within the [lo_pct, hi_pct] nearest-rank
/// percentiles of `requests` (0..100 = all requests).
BandRow Band(const std::vector<Breakdown>& requests, const std::string& name,
             double lo_pct, double hi_pct);

/// Series of a Prometheus text exposition: "name{labels}" -> value.
using Series = std::map<std::string, double>;

/// Parse Prometheus text ("name{k="v",...} value" lines; '#' lines and blank
/// lines skipped). Malformed lines are skipped.
Series ParsePrometheus(const std::string& text);

/// Sum of every series named `name`, whatever its labels (per-node
/// samples add up to the cluster's figure).
double SumSeries(const Series& series, const std::string& name);

/// after - before for SumSeries(name).
double Delta(const Series& before, const Series& after, const std::string& name);

}  // namespace sesemi::e2ebench

#endif  // SESEMI_E2EBENCH_STATS_H_

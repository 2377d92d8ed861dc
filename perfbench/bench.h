//===- perfbench/bench.h - DynACE benchmark harness -------------*- C++ -*-==//
//
// Part of the DynACE project (CGO 2005 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Shared declarations of the benchmark harness (see README.md in this
// directory). The harness drives the simulator only through the public
// functions of its libraries; every host-time figure it reports comes from
// the fastest repetition of identical work within one run.
//
//===----------------------------------------------------------------------===//

#ifndef DYNACE_PERFBENCH_BENCH_H
#define DYNACE_PERFBENCH_BENCH_H

#include "sim/ExperimentRunner.h"
#include "sim/System.h"
#include "vm/Specializer.h"
#include "workloads/WorkloadProfile.h"

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// \returns seconds elapsed since \p Start.
inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Repetitions every timed loop runs even when --seconds is already spent,
/// so the digest comparison across repetitions always has two samples.
constexpr unsigned kMinReps = 2;

/// Parsed command line.
struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Directory for the run's temporary files (removed at exit).
  std::string Scratch;
  /// Where the traced run writes its span table.
  std::string SpansPath;
  /// Repetitions run even when --seconds is already spent.
  unsigned MinReps = kMinReps;
  /// `--rss-probe`: run one repetition and print its peak RSS only.
  bool RssProbe = false;
};

/// Per-cell simulated-instruction budget of each workload.
constexpr uint64_t kHotloopBudget = 2'000'000;
constexpr uint64_t kPaperGridBudget = 1'000'000;
constexpr uint64_t kServedSmallBudget = 1'000'000;

/// \returns the per-cell budget of workload \p Name (0 = unknown name).
uint64_t workloadBudget(const std::string &Name);

/// One (benchmark, scheme) cell of the fig3 grid.
struct GridCell {
  const dynace::WorkloadProfile *Profile = nullptr;
  dynace::Scheme SchemeKind = dynace::Scheme::Baseline;
};

/// \returns "<profile>/<scheme>".
std::string cellName(const GridCell &C);

/// \returns \p B's result for scheme \p S (const or not, like \p B).
template <typename RunT> auto &schemeResult(RunT &B, dynace::Scheme S) {
  return S == dynace::Scheme::Baseline ? B.Baseline
         : S == dynace::Scheme::Bbv    ? B.Bbv
                                       : B.Hotspot;
}

/// \returns the 21-cell grid (7 standard profiles x 3 schemes). Seed 0 is
///          the standard profile-major order; any other seed shuffles the
///          cells with a Fisher-Yates pass driven by splitmix64(seed).
std::vector<GridCell> gridCells(uint64_t Seed);

/// \returns the 7 standard profiles, shuffled like gridCells() (runAll
///          takes profiles, so paper-grid permutes at profile grain).
std::vector<dynace::WorkloadProfile> profileOrder(uint64_t Seed);

/// \returns the index of \p P in specjvm98Profiles().
size_t profileIndex(const dynace::WorkloadProfile &P);

/// \returns the FNV-1a 64-bit hash of \p Bytes.
uint64_t fnv1a(const std::string &Bytes);

/// Everything a run reports: the counts for the result line and the
/// metrics.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  /// Peak resident set after the workload's first repetition.
  double PeakRssMiB = 0.0;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Prints a correctness mismatch; it counts as a failed unit.
  void mismatch(const std::string &What);
};

/// Checks that every repetition of a cell serializes to the bytes of its
/// first repetition.
class DigestCheck {
public:
  void check(const std::string &Cell, const std::string &Bytes, Report &R) {
    uint64_t H = fnv1a(Bytes);
    auto [It, Inserted] = First.emplace(Cell, H);
    if (!Inserted && It->second != H)
      R.mismatch(Cell + ": result differs from its first repetition");
  }

private:
  std::map<std::string, uint64_t> First;
};

/// Runs the setup probe — a fresh copy of this binary timing generate +
/// strict finalize + kernel pick of the seven profiles — at evenly spaced
/// points of a workload's measured time.
class SetupProber {
public:
  SetupProber(std::string Exe, unsigned Probes) : Exe(std::move(Exe)),
                                                  Probes(Probes) {}
  /// Runs the probes due once \p Fraction of the measured time is spent.
  void at(double Fraction, Report &R);
  /// Runs any probe not yet run (a loop that ended early).
  void finish(Report &R) { at(1.0, R); }

  struct Sample {
    double TotalSeconds = 0.0;
    double GenerateSeconds = 0.0;
    double PickSeconds = 0.0;
  };
  const std::vector<Sample> &samples() const { return Samples; }

private:
  std::string Exe;
  unsigned Probes;
  std::vector<Sample> Samples;
};

/// The setup probe's own body (`--setup-probe`): prints one line
/// "setup <total_s> <generate_s> <pick_s>" on stdout.
int runSetupProbe();

/// Untimed set-up shared by every workload: generates the seven standard
/// programs (memoized process-wide by cachedWorkload) and picks their
/// kernels, printing the picks, so that every timed repetition does
/// identical work. \returns the picked variant per standard profile.
std::vector<dynace::SpecVariant> setUpPrograms();

/// \returns the median of \p V (which must not be empty).
double median(std::vector<double> V);

/// Adds the three deterministic paper metrics (hotspot vs baseline, mean
/// over profiles) computed from \p Runs.
void paperMetrics(Report &R, const std::vector<dynace::BenchmarkRun> &Runs);

/// Groups per-cell results (indexed like \p Cells) into one BenchmarkRun
/// per profile, in standard profile order.
std::vector<dynace::BenchmarkRun>
triplesFromCells(const std::vector<GridCell> &Cells,
                 const std::vector<dynace::SimulationResult> &Results);

/// \returns this process's peak resident set in MiB; with
///          \p PlusLargestChild, plus the largest reaped child's (the
///          serve workers: only the peak-RSS probe process calls this, and
///          it spawns no other children).
double peakRssMiB(bool PlusLargestChild);

/// Untraced workloads: fill \p R with every end-to-end metric.
void runHotloop(const Args &A, SetupProber &Prober, Report &R);
void runPaperGrid(const Args &A, SetupProber &Prober, Report &R);
void runServedSmall(const Args &A, SetupProber &Prober, Report &R);

/// The traced run: fill \p R with every per-layer metric.
void runLayers(const Args &A, SetupProber &Prober, Report &R);

} // namespace perfbench

#endif // DYNACE_PERFBENCH_BENCH_H

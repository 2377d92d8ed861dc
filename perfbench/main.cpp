//===- perfbench/main.cpp - DynACE benchmark entry point ------------------==//
//
// Part of the DynACE project (CGO 2005 reproduction).
//
//===----------------------------------------------------------------------===//
//
//   dynace_perfbench --workload hotloop|paper-grid|served-small
//                    --seed N --seconds S --trace 0|1
//                    [--scratch DIR] [--spans FILE]
//   dynace_perfbench --setup-probe
//   dynace_perfbench --workload W --seed N --rss-probe
//
// The two probe forms are what the harness spawns in fresh copies of
// itself: the set-up timing behind setup_s, and one repetition of a
// workload for peak_rss_mb.
//
// Prints informational "# ..." lines, then one JSON result object as the
// last line of stdout. Exit status: 0 success, 1 a correctness check
// failed (the result line says correct=false), 2 usage or environment
// error (no result line).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "vm/Specializer.h"
#include "workloads/WorkloadGenerator.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS ""
#endif

using namespace dynace;

namespace perfbench {

uint64_t workloadBudget(const std::string &Name) {
  if (Name == "hotloop")
    return kHotloopBudget;
  if (Name == "paper-grid")
    return kPaperGridBudget;
  if (Name == "served-small")
    return kServedSmallBudget;
  return 0;
}

static uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

template <typename T> static void shuffleForSeed(std::vector<T> &V,
                                                 uint64_t Seed) {
  if (Seed == 0)
    return;
  uint64_t State = Seed;
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[splitmix64(State) % I]);
}

std::vector<GridCell> gridCells(uint64_t Seed) {
  std::vector<GridCell> Cells;
  for (const WorkloadProfile &P : specjvm98Profiles())
    for (Scheme S : {Scheme::Baseline, Scheme::Bbv, Scheme::Hotspot})
      Cells.push_back({&P, S});
  shuffleForSeed(Cells, Seed);
  return Cells;
}

std::vector<WorkloadProfile> profileOrder(uint64_t Seed) {
  std::vector<WorkloadProfile> Profiles = specjvm98Profiles();
  shuffleForSeed(Profiles, Seed);
  return Profiles;
}

size_t profileIndex(const WorkloadProfile &P) {
  const std::vector<WorkloadProfile> &All = specjvm98Profiles();
  for (size_t I = 0; I != All.size(); ++I)
    if (All[I].Name == P.Name)
      return I;
  return All.size();
}

uint64_t fnv1a(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

std::string cellName(const GridCell &C) {
  return C.Profile->Name + "/" + schemeName(C.SchemeKind);
}

void Report::mismatch(const std::string &What) {
  ++Failed;
  std::printf("# MISMATCH: %s\n", What.c_str());
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

void paperMetrics(Report &R, const std::vector<BenchmarkRun> &Runs) {
  double L1 = 0.0, L2 = 0.0, Slow = 0.0;
  for (const BenchmarkRun &B : Runs) {
    L1 += BenchmarkRun::reduction(B.Hotspot.L1DEnergy.total(),
                                  B.Baseline.L1DEnergy.total());
    L2 += BenchmarkRun::reduction(B.Hotspot.L2Energy.total(),
                                  B.Baseline.L2Energy.total());
    Slow += BenchmarkRun::slowdown(B.Hotspot.Cycles, B.Baseline.Cycles);
  }
  double N = static_cast<double>(Runs.size());
  R.metric("l1d_energy_reduction_pct", 100.0 * L1 / N, "%");
  R.metric("l2_energy_reduction_pct", 100.0 * L2 / N, "%");
  R.metric("slowdown_pct", 100.0 * Slow / N, "%");
  // The paper's averages, for context only: the scaled synthetic model is
  // unvalidated in absolute terms (EXPERIMENTS.md), so no error is given.
  std::printf("# simulated (hotspot vs baseline): L1D %.2f%%, L2 %.2f%%, "
              "slowdown %.3f%%; paper: 47%%, 58%%, 1.56%%\n",
              100.0 * L1 / N, 100.0 * L2 / N, 100.0 * Slow / N);
}

std::vector<BenchmarkRun>
triplesFromCells(const std::vector<GridCell> &Cells,
                 const std::vector<SimulationResult> &Results) {
  std::vector<BenchmarkRun> Runs(specjvm98Profiles().size());
  for (size_t I = 0; I != Cells.size(); ++I) {
    BenchmarkRun &B = Runs[profileIndex(*Cells[I].Profile)];
    B.Name = Cells[I].Profile->Name;
    schemeResult(B, Cells[I].SchemeKind) = Results[I];
  }
  return Runs;
}

double peakRssMiB(bool PlusLargestChild) {
  // VmHWM, not getrusage(RUSAGE_SELF): Linux carries ru_maxrss across
  // execve, so a process spawned by a large parent would report the
  // parent's peak.
  double KiB = 0.0;
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      KiB = std::strtod(Line.c_str() + 6, nullptr);
  if (PlusLargestChild) {
    struct rusage Children {};
    ::getrusage(RUSAGE_CHILDREN, &Children);
    KiB += static_cast<double>(Children.ru_maxrss);
  }
  return KiB / 1024.0;
}

/// Spawns \p Exe with \p Argv and \returns its stdout, or an empty string
/// when it could not run or exited non-zero.
static std::string captureChild(const std::string &Exe,
                                const std::vector<std::string> &Argv) {
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return "";
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  std::vector<char *> CArgv;
  CArgv.push_back(const_cast<char *>(Exe.c_str()));
  for (const std::string &S : Argv)
    CArgv.push_back(const_cast<char *>(S.c_str()));
  CArgv.push_back(nullptr);
  pid_t Pid = 0;
  int Err = posix_spawn(&Pid, Exe.c_str(), &Actions, nullptr, CArgv.data(),
                        environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Pipe[1]);
  std::string Out;
  if (Err == 0) {
    char Buf[4096];
    ssize_t N;
    while ((N = ::read(Pipe[0], Buf, sizeof(Buf))) > 0 ||
           (N < 0 && errno == EINTR))
      if (N > 0)
        Out.append(Buf, static_cast<size_t>(N));
  }
  ::close(Pipe[0]);
  if (Err != 0)
    return "";
  int WaitStatus = 0;
  while (::waitpid(Pid, &WaitStatus, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(WaitStatus) || WEXITSTATUS(WaitStatus) != 0)
    return "";
  return Out;
}

void SetupProber::at(double Fraction, Report &R) {
  while (Samples.size() < Probes &&
         Fraction >= static_cast<double>(Samples.size()) / Probes) {
    std::istringstream In(captureChild(Exe, {"--setup-probe"}));
    std::string Tag;
    Sample S;
    In >> Tag >> S.TotalSeconds >> S.GenerateSeconds >> S.PickSeconds;
    if (!In || Tag != "setup") {
      R.mismatch("setup probe produced no valid sample");
      return;
    }
    Samples.push_back(std::move(S));
  }
}

std::vector<SpecVariant> setUpPrograms() {
  std::vector<SpecVariant> Picks;
  std::string Line = "# kernel picks:";
  for (const WorkloadProfile &P : specjvm98Profiles()) {
    Picks.push_back(VariantPicker::decide(cachedWorkload(P).Prog,
                                          VariantPicker::requestFromEnv())
                        .Variant);
    Line += " " + P.Name + "=" + specVariantName(Picks.back());
  }
  std::printf("%s\n", Line.c_str());
  return Picks;
}

/// Runs one repetition of \p A's workload in a fresh copy of this binary
/// and \returns the peak resident set it reports.
static double rssProbe(const std::string &Exe, const Args &A, Report &R) {
  std::istringstream In(captureChild(
      Exe, {"--workload", A.Workload, "--seed", std::to_string(A.Seed),
            "--scratch", A.Scratch + "/rss", "--rss-probe"}));
  double MiB = 0.0;
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("rss ", 0) == 0)
      MiB = std::strtod(Line.c_str() + 4, nullptr);
  if (!(MiB > 0.0))
    R.mismatch("peak-RSS probe produced no valid sample");
  return MiB;
}

int runSetupProbe() {
  Clock::time_point Start = Clock::now();
  std::vector<GeneratedWorkload> Workloads;
  for (const WorkloadProfile &P : specjvm98Profiles())
    Workloads.push_back(WorkloadGenerator::generate(P));
  double Generate = secondsSince(Start);
  Clock::time_point PickStart = Clock::now();
  for (const GeneratedWorkload &W : Workloads)
    VariantPicker::decide(W.Prog, VariantPicker::requestFromEnv());
  double Pick = secondsSince(PickStart);
  std::printf("setup %.9f %.9f %.9f\n", secondsSince(Start), Generate, Pick);
  return 0;
}

} // namespace perfbench

using namespace perfbench;

namespace {

/// Clears every DYNACE_* knob inherited from the caller: tracing, fault
/// injection, job counts, budgets, serve settings, cache directories and
/// kernel overrides all change what is measured. The workloads then set
/// the few they need explicitly (DYNACE_CACHE_DIR). Runs before any thread
/// exists.
void isolateEnvironment() {
  std::vector<std::string> Names;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "DYNACE_", 7) == 0)
      Names.emplace_back(*E, std::strcspn(*E, "="));
  for (const std::string &N : Names) {
    std::printf("# cleared %s\n", N.c_str());
    ::unsetenv(N.c_str());
  }
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--rss-probe") {
      A.RssProbe = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    char *End = nullptr;
    errno = 0;
    if (Flag == "--workload") {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || *End || errno || Value[0] == '-')
        return false;
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (Value.empty() || *End || !(A.Seconds > 0.0) || A.Seconds > 600.0)
        return false;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return false;
      A.Trace = Value == "1";
    } else if (Flag == "--scratch") {
      A.Scratch = Value;
    } else if (Flag == "--spans") {
      A.SpansPath = Value;
    } else {
      return false;
    }
  }
  return HaveWorkload && workloadBudget(A.Workload) != 0;
}

void printResult(const Report &R) {
  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g", R.Metrics[I].Value);
    Json += (I ? ", \"" : "\"") + R.Metrics[I].Name +
            "\": {\"value\": " + Value + ", \"unit\": \"" +
            R.Metrics[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
}

std::string selfExe() {
  std::error_code Ec;
  std::filesystem::path P = std::filesystem::read_symlink("/proc/self/exe",
                                                          Ec);
  return Ec ? std::string() : P.string();
}

} // namespace

int main(int Argc, char **Argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (Argc == 2 && std::strcmp(Argv[1], "--setup-probe") == 0)
    return runSetupProbe();

  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: %s --workload hotloop|paper-grid|served-small "
                 "--seed N --seconds S --trace 0|1 [--scratch DIR] "
                 "[--spans FILE]\n",
                 Argv[0]);
    return 2;
  }
  isolateEnvironment();

  // Host-time metrics from an unoptimized build are meaningless; refuse to
  // report any rather than publish them.
  std::printf("# build: %s (flags: \"%s\")\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_BUILD_FLAGS);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "error: benchmark built as %s; host-time metrics "
                         "require a Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::string Exe = selfExe();
  if (Exe.empty()) {
    std::fprintf(stderr, "error: cannot resolve /proc/self/exe\n");
    return 2;
  }
  if (A.Scratch.empty())
    A.Scratch = ".bench_build/perfbench/run-" + std::to_string(::getpid());
  std::error_code Ec;
  std::filesystem::create_directories(A.Scratch, Ec);
  if (Ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", A.Scratch.c_str(),
                 Ec.message().c_str());
    return 2;
  }
  std::printf("# workload %s, seed %llu, %.1f s, trace %d, budget %llu "
              "instructions per cell\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0,
              static_cast<unsigned long long>(workloadBudget(A.Workload)));

  if (A.RssProbe) {
    // One repetition in a fresh process, so no earlier repetition or
    // probe has shaped the heap. Each System allocates a multi-MiB
    // interpreter heap; with glibc's adaptive threshold a freed one stays
    // in the heap, and whether the next fits in it depends on which cells
    // ran before it on that thread, so the peak moved by 16 MiB between
    // identical runs. A fixed threshold returns every such heap on free:
    // the figure is the live footprint. The probe is not timed, so the
    // slower allocation does not matter here.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    A.MinReps = 1;
    A.Seconds = 1e-9;
  }

  Report R;
  SetupProber Prober(Exe, /*Probes=*/A.RssProbe ? 0 : 5);
  if (A.Trace)
    runLayers(A, Prober, R);
  else if (A.Workload == "hotloop")
    runHotloop(A, Prober, R);
  else if (A.Workload == "paper-grid")
    runPaperGrid(A, Prober, R);
  else
    runServedSmall(A, Prober, R);
  Prober.finish(R);

  if (A.RssProbe) {
    std::filesystem::remove_all(A.Scratch, Ec);
    std::printf("rss %.17g\n", R.PeakRssMiB);
    return R.Failed == 0 ? 0 : 1;
  }
  if (!A.Trace) {
    R.metric("peak_rss_mb", rssProbe(Exe, A, R), "MiB");
    std::vector<double> Totals;
    for (const SetupProber::Sample &S : Prober.samples())
      Totals.push_back(S.TotalSeconds);
    if (!Totals.empty())
      R.metric("setup_s", median(Totals), "s");
  }
  std::filesystem::remove_all(A.Scratch, Ec);
  for (const Report::Metric &M : R.Metrics)
    if (!std::isfinite(M.Value))
      R.mismatch("metric " + M.Name + " is not finite");

  if (R.Failed != 0)
    R.Metrics.clear(); // Never publish numbers from an incorrect run.
  printResult(R);
  return R.Failed == 0 ? 0 : 1;
}

//===- perfbench/workloads.cpp - Untraced end-to-end workloads ------------==//
//
// Part of the DynACE project (CGO 2005 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The three workloads, each a closed batch driven from this process with
// caches starting empty. Host time is taken from the fastest repetition of
// identical work: per cell where cells run serially (hotloop), per pass
// where they run in parallel (paper-grid, served-small). The host's speed
// changes in windows about a second long, and noise only ever slows a
// repetition, so the minimum is the stable estimate.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "serve/Coordinator.h"
#include "sim/Reports.h"
#include "sim/ResultCache.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

using namespace dynace;

namespace perfbench {

namespace {

double totalInstructions(const std::vector<SimulationResult> &Results) {
  double N = 0.0;
  for (const SimulationResult &S : Results)
    N += static_cast<double>(S.Instructions);
  return N;
}

} // namespace

void runHotloop(const Args &A, SetupProber &Prober, Report &R) {
  std::vector<GridCell> Cells = gridCells(A.Seed);
  setUpPrograms();

  std::vector<double> Fastest(Cells.size(), kInf);
  std::vector<SimulationResult> Results(Cells.size());
  DigestCheck Digests;
  double Measured = 0.0;
  for (unsigned Pass = 0; Pass < A.MinReps || Measured < A.Seconds; ++Pass) {
    Prober.at(Measured / A.Seconds, R);
    for (size_t I = 0; I != Cells.size(); ++I) {
      SimulationOptions Opts;
      Opts.SchemeKind = Cells[I].SchemeKind;
      Opts.MaxInstructions = kHotloopBudget;
      Clock::time_point Start = Clock::now();
      System Sys(cachedWorkload(*Cells[I].Profile).Prog, Opts);
      Expected<SimulationResult> Res = Sys.runChecked();
      double Seconds = secondsSince(Start);
      Measured += Seconds;
      ++R.Attempted;
      if (!Res) {
        R.mismatch(cellName(Cells[I]) + ": " + Res.status().toString());
        continue;
      }
      Fastest[I] = std::min(Fastest[I], Seconds);
      Digests.check(cellName(Cells[I]), serializeResult(*Res), R);
      if (Pass == 0)
        Results[I] = Res.take();
    }
    if (Pass == 0)
      R.PeakRssMiB = peakRssMiB(false);
  }

  double Wall = 0.0;
  for (double S : Fastest)
    Wall += S;
  R.metric("sim_mips", totalInstructions(Results) / Wall / 1e6, "Minst/s");
  R.metric("wall_s", Wall, "s");
  paperMetrics(R, triplesFromCells(Cells, Results));
}

void runPaperGrid(const Args &A, SetupProber &Prober, Report &R) {
  std::vector<WorkloadProfile> Profiles = profileOrder(A.Seed);
  SimulationOptions Opts;
  Opts.MaxInstructions = kPaperGridBudget;
  setUpPrograms();

  double ColdBest = kInf, WarmBest = kInf, ReportBest = kInf;
  double Instructions = 0.0;
  std::vector<BenchmarkRun> Reference;
  DigestCheck Digests;
  double Measured = 0.0;
  for (unsigned Rep = 0; Rep < A.MinReps || Measured < A.Seconds; ++Rep) {
    Prober.at(Measured / A.Seconds, R);
    std::string Dir = A.Scratch + "/cache-" + std::to_string(Rep);
    ::setenv("DYNACE_CACHE_DIR", Dir.c_str(), 1);

    Clock::time_point Start = Clock::now();
    std::vector<BenchmarkRun> Cold = ExperimentRunner(Opts).runAll(Profiles, 2);
    double ColdSeconds = secondsSince(Start);
    Start = Clock::now();
    std::vector<BenchmarkRun> Warm = ExperimentRunner(Opts).runAll(Profiles, 2);
    double WarmSeconds = secondsSince(Start);
    Start = Clock::now();
    std::ostringstream Text;
    printFigure3(Text, Warm);
    printFigure4(Text, Warm);
    printTable4(Text, Warm);
    printTable5(Text, Warm);
    double ReportSeconds = secondsSince(Start);
    Measured += ColdSeconds + WarmSeconds + ReportSeconds;
    ColdBest = std::min(ColdBest, ColdSeconds);
    WarmBest = std::min(WarmBest, WarmSeconds);
    ReportBest = std::min(ReportBest, ReportSeconds);

    R.Attempted += 6 * Profiles.size();
    double Instr = 0.0;
    for (size_t I = 0; I != Profiles.size(); ++I)
      for (Scheme S : {Scheme::Baseline, Scheme::Bbv, Scheme::Hotspot}) {
        std::string Name = Profiles[I].Name + "/" + schemeName(S);
        const CellOutcome &C = Cold[I].outcome(S), &W = Warm[I].outcome(S);
        if (C.Failed || W.Failed) {
          R.mismatch(Name + ": cell failed (" + C.label() + ", " + W.label() +
                     ")");
          continue;
        }
        if (C.CacheHit || !W.CacheHit)
          R.mismatch(Name + ": cold pass hit or warm pass missed the cache");
        const SimulationResult &ColdRes = schemeResult(Cold[I], S);
        std::string Bytes = serializeResult(ColdRes);
        if (Bytes != serializeResult(schemeResult(Warm[I], S)))
          R.mismatch(Name + ": warm-cache result differs from the cold run");
        Digests.check(Name, Bytes, R);
        Instr += static_cast<double>(ColdRes.Instructions);
      }
    Digests.check("report", Text.str(), R);
    if (Rep == 0) {
      Instructions = Instr;
      Reference = Cold;
      R.PeakRssMiB = peakRssMiB(false);
    }
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
  ::unsetenv("DYNACE_CACHE_DIR");

  R.metric("sim_mips", Instructions / ColdBest / 1e6, "Minst/s");
  R.metric("wall_s", ColdBest + WarmBest + ReportBest, "s");
  // Standard profile order, so the means sum in the same order at every
  // seed and repeat bit for bit.
  std::sort(Reference.begin(), Reference.end(),
            [](const BenchmarkRun &X, const BenchmarkRun &Y) {
              return profileIndex(*findProfile(X.Name)) <
                     profileIndex(*findProfile(Y.Name));
            });
  paperMetrics(R, Reference);
}

void runServedSmall(const Args &A, SetupProber &Prober, Report &R) {
  std::vector<GridCell> Cells = gridCells(A.Seed);
  std::vector<serve::CellSpec> Specs;
  for (const GridCell &C : Cells)
    Specs.push_back({C.Profile->Name, C.SchemeKind});
  SimulationOptions Base;
  Base.MaxInstructions = kServedSmallBudget;
  // Served results are stored through the write-ahead journal only; an
  // empty cache directory disables the result cache in the workers.
  ::setenv("DYNACE_CACHE_DIR", "", 1);
  serve::ServeConfig Config;
  Config.Workers = 2;

  // Set-up happens here, before the first timed grid, as on the other
  // workloads: the forked workers inherit the programs and kernel picks, so
  // every grid repeats identical work (setup_s measures what a cold worker
  // would add).
  setUpPrograms();
  double Best = kInf;
  std::vector<std::string> FirstBytes(Cells.size());
  std::vector<SimulationResult> Results(Cells.size());
  DigestCheck Digests;
  double Measured = 0.0;
  for (unsigned Rep = 0; Rep < A.MinReps || Measured < A.Seconds; ++Rep) {
    Prober.at(Measured / A.Seconds, R);
    Config.JournalPath = A.Scratch + "/journal-" + std::to_string(Rep);
    Clock::time_point Start = Clock::now();
    Expected<serve::GridResult> Grid = serve::runGrid(Config, Base, Specs);
    double Seconds = secondsSince(Start);
    Measured += Seconds;
    Best = std::min(Best, Seconds);
    std::remove(Config.JournalPath.c_str());
    R.Attempted += Cells.size();
    if (!Grid) {
      R.mismatch("grid did not start: " + Grid.status().toString());
      continue;
    }
    if (Grid->Stats.ReplayedCells != 0)
      R.mismatch("fresh journal replayed cells");
    for (size_t I = 0; I != Cells.size(); ++I) {
      const serve::GridCell &G = Grid->Cells[I];
      if (G.Outcome.Failed) {
        R.mismatch(cellName(Cells[I]) + ": " + G.Outcome.label() + " " +
                   G.Outcome.Reason);
        continue;
      }
      std::string Bytes = serializeResult(G.Result);
      Digests.check(cellName(Cells[I]), Bytes, R);
      if (FirstBytes[I].empty()) {
        FirstBytes[I] = std::move(Bytes);
        Results[I] = G.Result;
      }
    }
    if (Rep == 0)
      R.PeakRssMiB = peakRssMiB(true);
  }

  // Served results must be byte-identical to an in-process run of the same
  // cells.
  for (size_t I = 0; I != Cells.size(); ++I) {
    auto [Res, Outcome] =
        runExperimentCell(*Cells[I].Profile, Cells[I].SchemeKind, Base);
    ++R.Attempted;
    if (Outcome.Failed || serializeResult(Res) != FirstBytes[I])
      R.mismatch(cellName(Cells[I]) +
                 ": served result differs from the in-process run");
  }
  ::unsetenv("DYNACE_CACHE_DIR");

  R.metric("sim_mips", totalInstructions(Results) / Best / 1e6, "Minst/s");
  R.metric("wall_s", Best, "s");
  paperMetrics(R, triplesFromCells(Cells, Results));
}

} // namespace perfbench

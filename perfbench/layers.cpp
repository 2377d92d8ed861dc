//===- perfbench/layers.cpp - The traced, layer-by-layer run --------------==//
//
// Part of the DynACE project (CGO 2005 reproduction).
//
//===----------------------------------------------------------------------===//
//
// `--trace 1`: measures every layer from outside, by timing calls into the
// public functions of the simulator's libraries.
//
//  * Kernel layers (vm, dosys/ace, uarch, bbv): a replica of
//    System::runLoop drives a System's public components with the same
//    batching rules and records one span per call into each layer. Its
//    repetitions are interleaved cell by cell with untraced runChecked()
//    repetitions; the fastest traced repetition of each cell supplies the
//    layer self times, and the replica must reproduce runChecked's
//    instruction count, cycles and energies exactly or the run is invalid.
//  * Consume-side split: one recorded DynInst stream replayed through
//    Core::consumeBatch alone, and its addresses through
//    MemoryHierarchy::dataAccess alone.
//  * Pipeline layers (sim): one cold + warm ExperimentRunner grid, plus
//    the result cache's publish and probe calls timed directly.
//  * Serve layers: served grids interleaved with inline (Workers=0) grids,
//    plus the cell codec and the journal append timed directly.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "serve/Coordinator.h"
#include "serve/Journal.h"
#include "sim/Reports.h"
#include "sim/ResultCache.h"
#include "vm/Specializer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

using namespace dynace;

namespace perfbench {

namespace {

/// Span names: one per layer boundary the replica crosses.
enum SpanName : uint8_t {
  SpanConstruct, ///< System construction (outside the cell span).
  SpanPick,      ///< Kernel pick + install (outside the cell span).
  SpanCell,      ///< The run loop through result collection.
  SpanInterp,    ///< Interpreter::stepBatch.
  SpanConsume,   ///< Core::consumeBatch.
  SpanBbv,       ///< BbvManager::onInstructionBatch.
  SpanBoundary,  ///< Interpreter::step on a boundary (DO/ACE hooks).
  kNumSpanNames
};
constexpr const char *kSpanNames[kNumSpanNames] = {
    "sim.construct",          "vm.pick",     "cell",
    "vm.stepBatch",           "uarch.consumeBatch",
    "bbv.onInstructionBatch", "dosys.boundary_step"};
constexpr uint32_t kNoParent = ~0u;

struct Span {
  int64_t Start;
  int64_t End;
  uint32_t Parent;
  uint8_t Name;
};

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Self time per span name: each span's duration minus the part its
/// children cover.
std::vector<double> selfTimesNs(const std::vector<Span> &Spans) {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent != kNoParent)
      ChildNs[S.Parent] += S.End - S.Start;
  std::vector<double> Self(kNumSpanNames, 0.0);
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[Spans[I].Name] +=
        static_cast<double>(Spans[I].End - Spans[I].Start - ChildNs[I]);
  return Self;
}

/// What the replica computed, for the exact comparison with runChecked.
struct ReplicaResult {
  uint64_t Instructions = 0;
  uint64_t Cycles = 0;
  double L1D = 0.0, L2 = 0.0, L1I = 0.0, Memory = 0.0;
  uint64_t Boundaries = 0;
  uint64_t Batches = 0;
  bool Trapped = false;
};

/// System::runChecked rebuilt from public components, with a span around
/// every call into a layer. The batching rules are runLoop's: batches stop
/// before method boundaries (executed through step(), consumed with the
/// next batch) and never span a BBV interval boundary.
ReplicaResult runReplica(const Program &Prog, const SimulationOptions &Opts,
                         std::vector<Span> &Log) {
  Log.clear();
  Log.reserve(64 + Opts.MaxInstructions / 128); // ~3 spans per batch.
  int64_t T0 = nowNs();
  System Sys(Prog, Opts);
  int64_t T1 = nowNs();
  Log.push_back({T0, T1, kNoParent, SpanConstruct});
  Sys.vm().setSpecialization(
      VariantPicker::decide(Prog, VariantPicker::requestFromEnv()).Image);
  int64_t T2 = nowNs();
  Log.push_back({T1, T2, kNoParent, SpanPick});
  const uint32_t Cell = static_cast<uint32_t>(Log.size());
  Log.push_back({T2, 0, kNoParent, SpanCell});

  Interpreter &Vm = Sys.vm();
  Core &Cpu = Sys.core();
  BbvManager *Bbv = Sys.bbvManager();
  Counter &BatchCounter = Sys.metrics().counter("sim.batches");
  Histogram &BatchLen = Sys.metrics().histogram("sim.batch_len");
  constexpr size_t kBatchCap = 1024;
  DynInst Buf[kBatchCap];
  const uint64_t Cap = Opts.MaxInstructions;
  ReplicaResult Out;
  size_t Pending = 0;
  auto Drain = [&](size_t N) {
    int64_t A = nowNs();
    Cpu.consumeBatch(Buf, N);
    int64_t B = nowNs();
    Log.push_back({A, B, Cell, SpanConsume});
    if (Bbv) {
      Bbv->onInstructionBatch(Buf, N);
      Log.push_back({B, nowNs(), Cell, SpanBbv});
    }
    BatchCounter.inc();
    BatchLen.record(N);
    ++Out.Batches;
  };
  while (!Vm.isHalted() && !Vm.trapped() &&
         (Cap == 0 || Vm.instructionCount() < Cap)) {
    size_t Limit = kBatchCap;
    if (Cap != 0 && Cap - Vm.instructionCount() < Limit)
      Limit = static_cast<size_t>(Cap - Vm.instructionCount());
    if (Bbv && Bbv->instructionsUntilBoundary() < Limit)
      Limit = static_cast<size_t>(Bbv->instructionsUntilBoundary());
    size_t N = Pending;
    if (Limit > Pending) {
      int64_t A = nowNs();
      N += Vm.stepBatch(Buf + Pending, Limit - Pending);
      Log.push_back({A, nowNs(), Cell, SpanInterp});
    }
    const bool Stalled = N == Pending && Limit > Pending;
    if (N != 0) {
      Drain(N);
      Pending = 0;
    }
    if (!Stalled)
      continue;
    if (Vm.isHalted())
      break;
    int64_t A = nowNs();
    Interpreter::Status St = Vm.step(Buf[0]);
    Log.push_back({A, nowNs(), Cell, SpanBoundary});
    ++Out.Boundaries;
    if (St == Interpreter::Status::Trapped)
      break;
    Pending = 1;
  }
  if (Pending != 0)
    Drain(Pending);
  if (Bbv)
    Bbv->finish();
  Sys.meter().syncLeakage(Cpu.cycles());
  Log[Cell].End = nowNs();

  Out.Instructions = Vm.instructionCount();
  Out.Cycles = Cpu.cycles();
  Out.L1D = Sys.meter().l1dEnergy().total();
  Out.L2 = Sys.meter().l2Energy().total();
  Out.L1I = Sys.meter().l1iEnergy().total();
  Out.Memory = Sys.meter().memoryEnergy();
  Out.Trapped = Vm.trapped();
  return Out;
}

bool sameAs(const ReplicaResult &X, const SimulationResult &Y) {
  return X.Instructions == Y.Instructions && X.Cycles == Y.Cycles &&
         X.L1D == Y.L1DEnergy.total() && X.L2 == Y.L2Energy.total() &&
         X.L1I == Y.L1IEnergy.total() && X.Memory == Y.MemoryEnergy &&
         X.Batches == Y.Metrics.counterOr("sim.batches") && !X.Trapped;
}

/// Per-cell state of the interleaved traced/untraced loop.
struct CellTiming {
  std::vector<double> UntracedSeconds;
  double TracedBest = kInf;
  std::vector<Span> BestSpans; ///< Spans of the fastest traced repetition.
  SimulationResult Result;     ///< First untraced repetition.
  uint64_t Boundaries = 0;
};

void writeSpans(const std::string &Path, const std::vector<GridCell> &Cells,
                const std::vector<CellTiming> &T) {
  if (Path.empty())
    return;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::printf("# cannot write spans to %s\n", Path.c_str());
    return;
  }
  std::fprintf(F, "cell\tspan\tname\tparent\tstart_ns\tend_ns\n");
  for (size_t C = 0; C != T.size(); ++C) {
    const std::vector<Span> &S = T[C].BestSpans;
    int64_t Epoch = S.empty() ? 0 : S.front().Start;
    for (size_t I = 0; I != S.size(); ++I)
      std::fprintf(F, "%s\t%zu\t%s\t%ld\t%lld\t%lld\n",
                   cellName(Cells[C]).c_str(), I, kSpanNames[S[I].Name],
                   S[I].Parent == kNoParent ? -1L
                                            : static_cast<long>(S[I].Parent),
                   static_cast<long long>(S[I].Start - Epoch),
                   static_cast<long long>(S[I].End - Epoch));
  }
  std::fclose(F);
  std::printf("# spans of each cell's fastest traced repetition: %s\n",
              Path.c_str());
}

/// Kernel layers: the interleaved traced/untraced loop over the grid.
void kernelLayers(const Args &A, uint64_t Budget, SetupProber &Prober,
                  Report &R) {
  std::vector<GridCell> Cells = gridCells(A.Seed);
  std::vector<SpecVariant> Picks = setUpPrograms();

  std::vector<CellTiming> T(Cells.size());
  DigestCheck Digests;
  std::vector<Span> Log;
  double Measured = 0.0;
  bool ReplicaValid = true;
  for (unsigned Pass = 0; Pass < A.MinReps || Measured < A.Seconds; ++Pass) {
    Prober.at(Measured / A.Seconds, R);
    for (size_t I = 0; I != Cells.size(); ++I) {
      const Program &Prog = cachedWorkload(*Cells[I].Profile).Prog;
      SimulationOptions Opts;
      Opts.SchemeKind = Cells[I].SchemeKind;
      Opts.MaxInstructions = Budget;

      Clock::time_point Start = Clock::now();
      System Sys(Prog, Opts);
      Expected<SimulationResult> Res = Sys.runChecked();
      double Untraced = secondsSince(Start);
      ReplicaResult Rep = runReplica(Prog, Opts, Log);
      // Construction through the end of the cell span (spans 0..2).
      double Traced = 1e-9 * static_cast<double>(Log[2].End - Log[0].Start);
      Measured += Untraced + Traced;
      R.Attempted += 2;
      if (!Res) {
        R.mismatch(cellName(Cells[I]) + ": " + Res.status().toString());
        continue;
      }
      CellTiming &C = T[I];
      Digests.check(cellName(Cells[I]), serializeResult(*Res), R);
      if (C.UntracedSeconds.empty())
        C.Result = *Res;
      if (!sameAs(Rep, *Res)) {
        R.mismatch(cellName(Cells[I]) +
                   ": traced replica diverged from runChecked");
        ReplicaValid = false;
      }
      C.UntracedSeconds.push_back(Untraced);
      C.Boundaries = Rep.Boundaries;
      if (Traced < C.TracedBest) {
        C.TracedBest = Traced;
        C.BestSpans.swap(Log);
      }
    }
  }
  if (!ReplicaValid)
    return; // Invalid: publish no layer numbers.
  writeSpans(A.SpansPath, Cells, T);

  // Layer self times from each cell's fastest traced repetition.
  std::vector<double> Self(kNumSpanNames, 0.0);
  double CellNs = 0.0, Instr = 0.0, BbvInstr = 0.0, BbvNs = 0.0;
  double UntracedBest = 0.0, TracedBest = 0.0, Batches = 0.0;
  double Boundaries = 0.0, SlowReps = 0.0, Reps = 0.0;
  uint64_t L1DAcc = 0, L1DMiss = 0, L2Acc = 0, L2Miss = 0;
  MetricsSnapshot Counts;
  for (size_t I = 0; I != Cells.size(); ++I) {
    const CellTiming &C = T[I];
    std::vector<double> S = selfTimesNs(C.BestSpans);
    for (size_t N = 0; N != kNumSpanNames; ++N)
      Self[N] += S[N];
    for (const Span &Sp : C.BestSpans)
      if (Sp.Name == SpanCell)
        CellNs += static_cast<double>(Sp.End - Sp.Start);
    double CellInstr = static_cast<double>(C.Result.Instructions);
    Instr += CellInstr;
    if (Cells[I].SchemeKind == Scheme::Bbv) {
      BbvInstr += CellInstr;
      BbvNs += S[SpanBbv];
    }
    double Best = *std::min_element(C.UntracedSeconds.begin(),
                                    C.UntracedSeconds.end());
    UntracedBest += Best;
    TracedBest += C.TracedBest;
    for (double Sec : C.UntracedSeconds)
      SlowReps += Sec > 1.5 * Best ? 1.0 : 0.0;
    Reps += static_cast<double>(C.UntracedSeconds.size());
    Batches += static_cast<double>(C.Result.Metrics.counterOr("sim.batches"));
    Boundaries += static_cast<double>(C.Boundaries);
    L1DAcc += C.Result.L1DStats.accesses();
    L1DMiss += C.Result.L1DStats.misses();
    L2Acc += C.Result.L2Stats.accesses();
    L2Miss += C.Result.L2Stats.misses();
    Counts.merge(C.Result.Metrics);
  }

  R.metric("vm.interp_ns_per_inst", Self[SpanInterp] / Instr, "ns/inst");
  R.metric("vm.batch_len_mean", Instr / Batches, "inst");
  for (size_t V = 0; V != kNumSpecVariants; ++V) {
    SpecVariant Variant = static_cast<SpecVariant>(V);
    double N = static_cast<double>(std::count(Picks.begin(), Picks.end(),
                                              Variant));
    R.metric(std::string("vm.specialize_pick.") + specVariantName(Variant), N,
             "count");
  }
  R.metric("dosys.boundary_ns_per_inst", Self[SpanBoundary] / Instr,
           "ns/inst");
  R.metric("dosys.boundaries_per_kinst", 1000.0 * Boundaries / Instr,
           "1/kinst");
  for (const char *Name : {"do.hotspots", "ace.tunings", "cu.L1D.changes",
                           "cu.L2.changes", "cu.L1D.rejects",
                           "cu.L2.rejects"}) {
    std::string Metric = Name;
    std::transform(Metric.begin(), Metric.end(), Metric.begin(), ::tolower);
    R.metric(Metric, static_cast<double>(Counts.counterOr(Name)), "count");
  }
  R.metric("uarch.consume_ns_per_inst", Self[SpanConsume] / Instr,
           "ns/inst");
  R.metric("bbv.ns_per_inst", BbvNs / BbvInstr, "ns/inst");
  R.metric("cache.l1d_miss_pct",
           100.0 * static_cast<double>(L1DMiss) / static_cast<double>(L1DAcc),
           "%");
  R.metric("cache.l2_miss_pct",
           100.0 * static_cast<double>(L2Miss) / static_cast<double>(L2Acc),
           "%");
  R.metric("trace.overhead_pct", 100.0 * (TracedBest / UntracedBest - 1.0),
           "%");
  R.metric("trace.residual_pct", 100.0 * Self[SpanCell] / CellNs, "%");
  R.metric("host.slow_rep_pct", 100.0 * SlowReps / Reps, "%");
  std::printf("# layer self time of the traced cells (fastest repetition "
              "per cell, %.0f instructions):\n",
              Instr);
  for (SpanName N : {SpanInterp, SpanConsume, SpanBbv, SpanBoundary,
                     SpanCell, SpanConstruct, SpanPick})
    std::printf("#   %-24s %10.3f ms %7.2f%% of cell  %7.3f ns/inst\n",
                N == SpanCell ? "residual (cell self)" : kSpanNames[N],
                1e-6 * Self[N], 100.0 * Self[N] / CellNs, Self[N] / Instr);
}

/// Consume-side split: replays one recorded hotloop cell through the
/// timing core alone and its data addresses through the hierarchy alone.
void replayLayers(double Seconds, Report &R) {
  constexpr size_t kReplayInstructions = 1'000'000;
  const Program &Prog = cachedWorkload(specjvm98Profiles().front()).Prog;
  Interpreter Vm(Prog);
  Vm.setSpecialization(
      VariantPicker::decide(Prog, VariantPicker::requestFromEnv()).Image);
  std::vector<DynInst> Stream(kReplayInstructions);
  size_t N = 0;
  while (N < Stream.size()) {
    size_t Got = Vm.stepBatch(Stream.data() + N,
                              std::min<size_t>(1024, Stream.size() - N));
    if (Got == 0)
      break;
    N += Got;
  }
  Stream.resize(N);
  struct Access {
    uint64_t Addr;
    bool IsWrite;
  };
  std::vector<Access> Accesses;
  for (const DynInst &D : Stream)
    if (D.Class == OpClass::Load || D.Class == OpClass::Store)
      Accesses.push_back({D.MemAddr, D.Class == OpClass::Store});

  SimulationOptions Defaults;
  double ConsumeBest = kInf, HierBest = kInf, Spent = 0.0;
  uint64_t FirstCycles = 0, FirstLatency = 0;
  for (unsigned Rep = 0; Rep < 3 || Spent < Seconds; ++Rep) {
    MemoryHierarchy Hier(Defaults.Hierarchy);
    Core Cpu(Defaults.Core, Hier);
    Clock::time_point Start = Clock::now();
    for (size_t I = 0; I < N; I += 1024)
      Cpu.consumeBatch(Stream.data() + I, std::min<size_t>(1024, N - I));
    double Consume = secondsSince(Start);

    MemoryHierarchy Alone(Defaults.Hierarchy);
    uint64_t Latency = 0;
    Start = Clock::now();
    for (const Access &Acc : Accesses)
      Latency += Alone.dataAccess(Acc.Addr, Acc.IsWrite).Latency;
    double Hier2 = secondsSince(Start);

    Spent += Consume + Hier2;
    ConsumeBest = std::min(ConsumeBest, Consume);
    HierBest = std::min(HierBest, Hier2);
    R.Attempted += 2;
    if (Rep == 0) {
      FirstCycles = Cpu.cycles();
      FirstLatency = Latency;
    } else if (Cpu.cycles() != FirstCycles || Latency != FirstLatency) {
      R.mismatch("replay is not deterministic across repetitions");
    }
  }
  R.metric("uarch.replay_ns_per_inst",
           1e9 * ConsumeBest / static_cast<double>(N), "ns/inst");
  R.metric("cache.hier_ns_per_access",
           1e9 * HierBest / static_cast<double>(Accesses.size()),
           "ns/access");
}

/// Pipeline layers: one cold + warm grid on two pool threads, then the
/// result cache's publish and probe timed directly on the grid's results.
void simLayers(const Args &A, uint64_t Budget, Report &R,
               std::vector<std::string> &ReferenceBytes) {
  std::vector<WorkloadProfile> Profiles = profileOrder(A.Seed);
  SimulationOptions Opts;
  Opts.MaxInstructions = Budget;
  std::string Dir = A.Scratch + "/layers-cache";
  ::setenv("DYNACE_CACHE_DIR", Dir.c_str(), 1);
  ExperimentRunner Cold(Opts);
  Clock::time_point Start = Clock::now();
  std::vector<BenchmarkRun> Runs = Cold.runAll(Profiles, 2);
  double PassSeconds = secondsSince(Start);
  ::unsetenv("DYNACE_CACHE_DIR");

  std::vector<double> CellMs;
  double Busy = 0.0;
  for (const RunStats &S : Cold.stats()) {
    CellMs.push_back(1000.0 * S.WallSeconds);
    Busy += S.WallSeconds;
  }
  R.Attempted += CellMs.size();
  for (const BenchmarkRun &B : Runs)
    if (!B.complete())
      R.mismatch(B.Name + ": paper-grid cell failed: " + B.failureLabel());

  std::vector<std::pair<std::string, const SimulationResult *>> Results;
  for (const BenchmarkRun &B : Runs)
    for (Scheme S : {Scheme::Baseline, Scheme::Bbv, Scheme::Hotspot}) {
      SimulationOptions O = Opts;
      O.SchemeKind = S;
      Results.push_back({resultCacheKey(B.Name, O), &schemeResult(B, S)});
    }
  double ReportBest = kInf, PublishBest = kInf, ProbeBest = kInf;
  double Bytes = 0.0;
  for (unsigned Rep = 0; Rep != 5; ++Rep) {
    Start = Clock::now();
    std::ostringstream Text;
    printFigure3(Text, Runs);
    printFigure4(Text, Runs);
    printTable4(Text, Runs);
    printTable5(Text, Runs);
    ReportBest = std::min(ReportBest, secondsSince(Start));

    std::string PubDir = A.Scratch + "/publish-" + std::to_string(Rep);
    std::filesystem::create_directories(PubDir);
    Start = Clock::now();
    for (const auto &[Key, Res] : Results)
      if (Status S = saveResultChecked(PubDir + "/" + Key + ".txt", *Res); !S)
        R.mismatch("cache publish failed: " + S.toString());
    PublishBest = std::min(PublishBest, secondsSince(Start));
    Start = Clock::now();
    for (const auto &[Key, Res] : Results) {
      Expected<SimulationResult> Loaded =
          loadResultChecked(PubDir + "/" + Key + ".txt");
      if (!Loaded || serializeResult(*Loaded) != serializeResult(*Res))
        R.mismatch("cache probe did not return the published result");
    }
    ProbeBest = std::min(ProbeBest, secondsSince(Start));
    Bytes = 0.0;
    for (const auto &[Key, Res] : Results)
      Bytes += static_cast<double>(
          std::filesystem::file_size(PubDir + "/" + Key + ".txt"));
    std::filesystem::remove_all(PubDir);
  }
  std::filesystem::remove_all(Dir);
  for (const auto &[Key, Res] : Results)
    ReferenceBytes.push_back(serializeResult(*Res));

  R.metric("sim.cell_ms_p50", median(CellMs), "ms");
  R.metric("sim.cell_ms_max", *std::max_element(CellMs.begin(), CellMs.end()),
           "ms");
  R.metric("sim.pool_idle_pct", 100.0 * (1.0 - Busy / (2.0 * PassSeconds)),
           "%");
  R.metric("sim.cache_publish_ms", 1000.0 * PublishBest, "ms");
  R.metric("sim.cache_probe_ms", 1000.0 * ProbeBest, "ms");
  R.metric("sim.cache_bytes_per_cell",
           Bytes / static_cast<double>(Results.size()), "B");
  R.metric("sim.report_ms", 1000.0 * ReportBest, "ms");
}

/// Serve layers: served grids (2 workers, journal on, result cache off)
/// interleaved with inline grids of the same cells, then the cell codec
/// and the journal append timed directly on the grid's records.
void serveLayers(const Args &A, uint64_t Budget, Report &R,
                 const std::vector<std::string> &ReferenceBytes) {
  std::vector<WorkloadProfile> Profiles = profileOrder(A.Seed);
  std::vector<serve::CellSpec> Specs;
  for (const WorkloadProfile &P : Profiles)
    for (Scheme S : {Scheme::Baseline, Scheme::Bbv, Scheme::Hotspot})
      Specs.push_back({P.Name, S});
  SimulationOptions Base;
  Base.MaxInstructions = Budget;
  ::setenv("DYNACE_CACHE_DIR", "", 1);

  double ServedBest = kInf, InlineBest = kInf;
  serve::GridStats Stats;
  std::vector<serve::GridCell> Served;
  for (unsigned Rep = 0; Rep != 2; ++Rep)
    for (unsigned Workers : {2u, 0u}) {
      serve::ServeConfig Config;
      Config.Workers = Workers;
      Config.JournalPath = A.Scratch + "/layers-journal";
      Clock::time_point Start = Clock::now();
      Expected<serve::GridResult> Grid = serve::runGrid(Config, Base, Specs);
      double Seconds = secondsSince(Start);
      std::remove(Config.JournalPath.c_str());
      R.Attempted += Specs.size();
      if (!Grid) {
        R.mismatch("grid did not start: " + Grid.status().toString());
        continue;
      }
      for (size_t I = 0; I != Specs.size(); ++I)
        if (Grid->Cells[I].Outcome.Failed ||
            serializeResult(Grid->Cells[I].Result) != ReferenceBytes[I])
          R.mismatch(Specs[I].Benchmark + "/" +
                     schemeName(Specs[I].SchemeKind) +
                     ": served result differs from the in-process run");
      if (Workers == 0) {
        InlineBest = std::min(InlineBest, Seconds);
      } else {
        ServedBest = std::min(ServedBest, Seconds);
        if (Rep == 0) {
          Stats = Grid->Stats;
          Served = std::move(Grid->Cells);
        }
      }
    }
  ::unsetenv("DYNACE_CACHE_DIR");
  if (Served.size() != Specs.size())
    return;

  std::vector<serve::CellResultMsg> Records;
  for (size_t I = 0; I != Specs.size(); ++I) {
    serve::CellResultMsg M;
    M.CellIndex = I;
    M.Cell = Specs[I];
    M.CacheKey = Served[I].CacheKey;
    M.ResultText = ReferenceBytes[I];
    Records.push_back(std::move(M));
  }
  double CodecBest = kInf, AppendBest = kInf;
  for (unsigned Rep = 0; Rep != 20; ++Rep) {
    Clock::time_point Start = Clock::now();
    for (const serve::CellResultMsg &M : Records) {
      Expected<serve::CellResultMsg> Back =
          serve::decodeCellResult(serve::encodeCellResult(M));
      if (!Back || Back->ResultText != M.ResultText)
        R.mismatch("cell codec did not round-trip");
    }
    CodecBest = std::min(CodecBest, secondsSince(Start));
  }
  for (unsigned Rep = 0; Rep != 3; ++Rep) {
    std::string Path = A.Scratch + "/append-journal";
    Clock::time_point Start = Clock::now();
    for (const serve::CellResultMsg &M : Records)
      if (Expected<uint64_t> N = serve::journalAppend(Path, M); !N)
        R.mismatch("journal append failed: " + N.status().toString());
    AppendBest = std::min(AppendBest, secondsSince(Start));
    std::remove(Path.c_str());
  }

  double Dispatches = static_cast<double>(Stats.WorkerDispatches);
  R.metric("serve.dispatches", Dispatches, "count");
  R.metric("serve.redispatch_pct",
           Dispatches ? 100.0 * static_cast<double>(Stats.Redispatches) /
                            Dispatches
                      : 0.0,
           "%");
  R.metric("serve.inline_cells", static_cast<double>(Stats.InlineCells),
           "count");
  R.metric("serve.respawns", static_cast<double>(Stats.Respawns), "count");
  R.metric("serve.journal_bytes", static_cast<double>(Stats.JournalBytes),
           "B");
  R.metric("serve.journal_append_ms", 1000.0 * AppendBest, "ms");
  R.metric("serve.codec_us_per_cell",
           1e6 * CodecBest / static_cast<double>(Records.size()), "us");
  R.metric("serve.overhead_pct", 100.0 * (ServedBest / InlineBest - 1.0), "%");
}

} // namespace

void runLayers(const Args &A, SetupProber &Prober, Report &R) {
  uint64_t Budget = workloadBudget(A.Workload);
  kernelLayers(A, Budget, Prober, R);
  if (R.Failed != 0)
    return;
  Prober.finish(R);
  std::vector<double> GenerateMs, PickMs;
  for (const SetupProber::Sample &S : Prober.samples()) {
    GenerateMs.push_back(1000.0 * S.GenerateSeconds);
    PickMs.push_back(1000.0 * S.PickSeconds);
  }
  if (!GenerateMs.empty()) {
    R.metric("workloads.generate_ms", median(GenerateMs), "ms");
    R.metric("vm.specialize_ms", median(PickMs), "ms");
  }
  replayLayers(0.5, R);
  std::vector<std::string> ReferenceBytes;
  simLayers(A, Budget, R, ReferenceBytes);
  serveLayers(A, Budget, R, ReferenceBytes);
}

} // namespace perfbench

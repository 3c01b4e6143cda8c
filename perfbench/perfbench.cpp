//===- perfbench.cpp - The repository benchmark driver --------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the library only through its public entry points (`Solver::solve`,
/// `Solver::open`, `SolverSession::solve`, `bp::parseProgram`/`buildCfg`,
/// `reach::verifyWitness`, and the line-JSON protocol of a getafixd process
/// it starts) on one seeded workload, checks every verdict and
/// witness against ground truth the solver does not provide, and prints one
/// JSON result line:
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--trace-file PATH]
///   perfbench --list-metrics     metric names and units, one per line
///   perfbench --selftest         tamper and percentile checks
///
/// Workloads (see README.md for the reasons and the parameters):
///
///   bluetooth-k4  one-shot `conc` solve of the 2-adder/2-stopper model at
///                 context bound 4 (Figure 3: ERR reachable).
///   seq-drivers   one-shot sequential solves of 28 reachable and 28
///                 unreachable 32-procedure drivers at 2 threads, then
///                 witness queries on small reachable drivers.
///   serve-mixed   a getafixd process (4 workers, a fixed memory budget
///                 below the mix's footprint) under a closed loop of four
///                 connections over terminator, bluetooth and driver
///                 programs, with batch and witness requests mixed in.
///
/// With `--trace 0` the result carries the end-to-end metrics; with
/// `--trace 1` it carries the per-layer metrics, and the benchmark-side
/// spans are written as Chrome `trace_event` JSON to `--trace-file`.
/// A wrong verdict, an unverifiable witness, an error or a limit stop is a
/// failed query: the result then reads `"correct": false` and the exit
/// code is 1.
///
//===----------------------------------------------------------------------===//

#include "api/Solver.h"
#include "bp/Cfg.h"
#include "bp/Parser.h"
#include "gen/Workloads.h"
#include "interp/ConcurrentOracle.h"
#include "reach/Witness.h"
#include "server/Protocol.h"
#include "support/Diagnostics.h"
#include "support/Socket.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace getafix;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point ProcessStart = Clock::now();

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

//===----------------------------------------------------------------------===//
// Metric names
//===----------------------------------------------------------------------===//

struct MetricDef {
  std::string Name;
  std::string Unit;
};

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},          {"wall_s", "s"},
      {"latency_p50_ms", "ms"},  {"latency_tail_ms", "ms"},
      {"throughput_qps", "req/s"}, {"peak_rss_mb", "MiB"},
  };
  return Defs;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = [] {
    std::vector<MetricDef> D = {
        {"bp.parse_s", "s"},
        {"api.open_s", "s"},
        {"api.solve_s", "s"},
        {"api.queries", "count"},
        {"api.failed_frac", "ratio"},
        {"fpcalc.iterations", "count"},
        {"fpcalc.delta_rounds", "count"},
        {"fpcalc.condensation_width", "count"},
        {"fpcalc.summary_relations", "count"},
        {"fpcalc.sccs_solved_parallel", "count"},
        {"fpcalc.imported_nodes", "count"},
        {"fpcalc.rounds_parallel", "count"},
        {"bdd.nodes_created", "count"},
        {"bdd.cache_lookups", "count"},
        {"bdd.cache_hit_rate", "ratio"},
    };
    for (unsigned Op = 0; Op < NumBddOps; ++Op)
      D.push_back({std::string("bdd.hit_rate.") + bddOpName(BddOp(Op)),
                   "ratio"});
    std::vector<MetricDef> Rest = {
        {"bdd.lookups.AndExists", "count"},
        {"bdd.lookups.Rename", "count"},
        {"bdd.ns_per_node_created", "ns"},
        {"bdd.peak_live_nodes", "count"},
        {"bdd.gc_runs", "count"},
        {"bdd.summary_nodes", "count"},
        {"concurrent.reach_states", "count"},
        {"reach.witness_s", "s"},
        {"reach.witness_iterations", "count"},
        {"reach.witness_steps", "count"},
        {"server.rtt_ms.single", "ms"},
        {"server.rtt_ms.batch", "ms"},
        {"server.rtt_ms.witness", "ms"},
        {"server.solver_s", "s"},
        {"server.wait_ms", "ms"},
        {"server.reuse_ratio", "ratio"},
        {"server.pool.hit_ratio", "ratio"},
        {"server.pool.reopens", "count"},
        {"server.pool.cache_clears", "count"},
        {"server.pool.evictions", "count"},
        {"server.pool.footprint_bytes", "bytes"},
        {"latency_tail.pct", "pct"},
        {"latency_tail.samples", "count"},
        {"trace.overhead_s", "s"},
        {"trace.spans", "count"},
        {"trace.self_s.bench", "s"},
        {"trace.self_s.bp", "s"},
        {"trace.self_s.api", "s"},
        {"trace.self_s.reach", "s"},
        {"trace.self_s.server", "s"},
    };
    D.insert(D.end(), Rest.begin(), Rest.end());
    return D;
  }();
  return Defs;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The highest latency percentile with at least ten samples beyond it.
struct TailPick {
  double Pct = 100.0;  ///< Percentile picked; 100 = the maximum.
  double Value = 0.0;
  size_t Samples = 0;  ///< Sample count the percentile is taken over.
  size_t Beyond = 0;   ///< Samples strictly above the picked rank.
};

/// Nearest-rank percentiles from p99.9 down to p50; the first with at
/// least ten samples above its rank wins. Fewer than 21 samples leave no
/// such percentile, and the maximum is reported (Pct = 100).
TailPick tailPercentile(std::vector<double> V) {
  TailPick T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    size_t Rank = size_t(std::ceil(P / 100.0 * double(N)));
    size_t Idx = Rank == 0 ? 0 : Rank - 1;
    if (N - 1 - Idx >= 10) {
      T.Pct = P;
      T.Value = V[Idx];
      T.Beyond = N - 1 - Idx;
      return T;
    }
  }
  T.Value = V.back();
  return T;
}

double peakRssMiB() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

//===----------------------------------------------------------------------===//
// Tracing: benchmark-side spans around each public call
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  std::string Layer;
  double Start = 0.0; ///< Seconds since process start.
  double End = 0.0;
  int64_t Parent = -1;
  uint64_t Request = 0;
  unsigned Thread = 0;
};

/// Spans kept in memory and written out at exit. Disabled, `begin` costs
/// one relaxed load.
class Tracer {
public:
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  int64_t begin(const std::string &Name, const char *Layer, uint64_t Request,
                int64_t Parent, unsigned Thread) {
    Span S;
    S.Name = Name;
    S.Layer = Layer;
    S.Request = Request;
    S.Parent = Parent;
    S.Thread = Thread;
    S.Start = secondsSince(ProcessStart);
    std::lock_guard<std::mutex> G(Mu);
    Spans.push_back(std::move(S));
    return int64_t(Spans.size() - 1);
  }

  void end(int64_t Id) {
    double T = secondsSince(ProcessStart);
    std::lock_guard<std::mutex> G(Mu);
    Spans[size_t(Id)].End = T;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> G(Mu);
    return Spans;
  }

private:
  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu; ///< Guards Spans.
  std::vector<Span> Spans;
};

Tracer TheTracer;
thread_local std::vector<int64_t> OpenSpans; ///< This thread's span stack.
thread_local unsigned ThreadIndex = 0;

/// One span for the lifetime of the object. The parent is the innermost
/// open span of this thread unless given explicitly (a client thread's
/// root span names the main thread's span that spawned it).
class TraceScope {
public:
  TraceScope(const std::string &Name, const char *Layer, uint64_t Request = 0)
      : TraceScope(Name, Layer, Request,
                   OpenSpans.empty() ? -1 : OpenSpans.back()) {}
  TraceScope(const std::string &Name, const char *Layer, uint64_t Request,
             int64_t Parent) {
    if (!TheTracer.enabled())
      return;
    Id = TheTracer.begin(Name, Layer, Request, Parent, ThreadIndex);
    OpenSpans.push_back(Id);
  }
  ~TraceScope() {
    if (Id < 0)
      return;
    OpenSpans.pop_back();
    TheTracer.end(Id);
  }
  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;

  int64_t id() const { return Id; }

private:
  int64_t Id = -1;
};

/// Self time per layer: each span's duration minus the union of the
/// intervals its children cover.
std::map<std::string, double> selfSecondsByLayer(const std::vector<Span> &S) {
  std::vector<std::vector<std::pair<double, double>>> Kids(S.size());
  for (const Span &Sp : S)
    if (Sp.Parent >= 0)
      Kids[size_t(Sp.Parent)].push_back({Sp.Start, Sp.End});
  std::map<std::string, double> Out;
  for (size_t I = 0; I < S.size(); ++I) {
    std::vector<std::pair<double, double>> &K = Kids[I];
    std::sort(K.begin(), K.end());
    double Covered = 0.0, Lo = 0.0, Hi = -1.0;
    for (const auto &[A, B] : K) {
      double From = std::max(A, S[I].Start), To = std::min(B, S[I].End);
      if (To <= From)
        continue;
      if (From > Hi) {
        if (Hi > Lo)
          Covered += Hi - Lo;
        Lo = From;
        Hi = To;
      } else {
        Hi = std::max(Hi, To);
      }
    }
    if (Hi > Lo)
      Covered += Hi - Lo;
    Out[S[I].Layer] += std::max(0.0, S[I].End - S[I].Start - Covered);
  }
  return Out;
}

/// Chrome `trace_event` JSON ("X" complete events, microseconds), which
/// Perfetto and chrome://tracing open. Span names are string literals of
/// this file with no character JSON must escape.
bool writeChromeTrace(const std::vector<Span> &S, const std::string &Path) {
  std::ofstream F(Path);
  if (!F)
    return false;
  F << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char Buf[128];
  for (size_t I = 0; I < S.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "\"ts\":%.3f,\"dur\":%.3f",
                  S[I].Start * 1e6, (S[I].End - S[I].Start) * 1e6);
    F << (I ? ",\n" : "\n") << "{\"name\":\"" << S[I].Name
      << "\",\"cat\":\"" << S[I].Layer << "\",\"ph\":\"X\"," << Buf
      << ",\"pid\":1,\"tid\":" << S[I].Thread << ",\"args\":{\"span\":" << I
      << ",\"parent\":" << S[I].Parent << ",\"request\":" << S[I].Request
      << "}}";
  }
  F << "\n]}\n";
  return bool(F);
}

//===----------------------------------------------------------------------===//
// Correctness gate
//===----------------------------------------------------------------------===//

/// Counts every checked query; a miss is never dropped.
class Tally {
public:
  void record(bool Ok, const std::string &What) {
    std::lock_guard<std::mutex> G(Mu);
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Misses.size() < 10)
      Misses.push_back(What);
  }
  uint64_t attempted() const {
    std::lock_guard<std::mutex> G(Mu);
    return Attempted;
  }
  uint64_t failed() const {
    std::lock_guard<std::mutex> G(Mu);
    return Failed;
  }
  double failedFraction() const {
    std::lock_guard<std::mutex> G(Mu);
    return Attempted ? double(Failed) / double(Attempted) : 0.0;
  }
  std::vector<std::string> misses() const {
    std::lock_guard<std::mutex> G(Mu);
    return Misses;
  }

private:
  mutable std::mutex Mu; ///< Guards the counters and Misses.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Misses;
};

/// A sequential program parsed by the benchmark itself, so witnesses are
/// replayed against a CFG the solver did not build.
struct SeqProgram {
  std::string Source;
  std::unique_ptr<bp::Program> Prog;
  bp::ProgramCfg Cfg;
};

bool parseSeq(const std::string &Source, SeqProgram &Out) {
  TraceScope T("bp::parseProgram+buildCfg", "bp");
  DiagnosticEngine Diags;
  Out.Source = Source;
  Out.Prog = bp::parseProgram(Source, Diags);
  if (!Out.Prog)
    return false;
  Out.Cfg = bp::buildCfg(*Out.Prog);
  return true;
}

struct ConcProgram {
  std::unique_ptr<bp::ConcurrentProgram> Prog;
  std::vector<bp::ProgramCfg> Cfgs;
};

bool parseConc(const std::string &Source, ConcProgram &Out) {
  TraceScope T("bp::parseConcurrentProgram+buildCfg", "bp");
  DiagnosticEngine Diags;
  Out.Prog = bp::parseConcurrentProgram(Source, Diags);
  if (!Out.Prog)
    return false;
  Out.Cfgs.clear();
  for (const auto &Th : Out.Prog->Threads)
    Out.Cfgs.push_back(bp::buildCfg(*Th));
  return true;
}

/// Empty when \p Steps replay to \p Label through `reach::verifyWitness`.
std::string witnessProblem(const SeqProgram &P, const std::string &Label,
                           const std::vector<reach::WitnessStep> &Steps) {
  TraceScope T("reach::verifyWitness", "reach");
  unsigned Proc = 0, Pc = 0;
  if (!P.Cfg.findLabelPc(Label, Proc, Pc))
    return "label " + Label + " missing from the benchmark's own CFG";
  std::string Error;
  if (!reach::verifyWitness(P.Cfg, Steps, Proc, Pc, &Error))
    return "witness does not replay: " + Error;
  return "";
}

/// Empty when \p R is an answered query with the expected verdict and, for
/// a witness query on a reachable target, a witness that replays.
std::string queryProblem(const api::SolveResult &R, bool Expect,
                         const SeqProgram *WitnessProgram,
                         const std::string &Label) {
  if (!R.ok())
    return "status " + std::to_string(int(R.Status)) + ": " + R.Error;
  if (R.HitIterationLimit)
    return "stopped at the iteration limit";
  if (R.Reachable != Expect)
    return std::string("verdict ") + (R.Reachable ? "YES" : "NO") +
           ", expected " + (Expect ? "YES" : "NO");
  if (WitnessProgram && Expect) {
    if (!R.HasWitness)
      return "no witness returned";
    return witnessProblem(*WitnessProgram, Label, R.Witness);
  }
  return "";
}

void checkQuery(Tally &T, const std::string &What, const api::SolveResult &R,
                bool Expect, const SeqProgram *WitnessProgram = nullptr,
                const std::string &Label = "ERR") {
  std::string Problem = queryProblem(R, Expect, WitnessProgram, Label);
  T.record(Problem.empty(), What + ": " + Problem);
}

/// Parses the `reach::formatWitness` rendering a server row carries back
/// into steps ("#I kind  Proc@pc (label) L=bits G=bits" per line).
bool parseWitnessText(const SeqProgram &P, const std::string &Text,
                      std::vector<reach::WitnessStep> &Steps) {
  auto Bits = [](const std::string &S) {
    uint64_t V = 0;
    if (S == "-")
      return V;
    for (size_t I = 0; I < S.size() && I < 64; ++I)
      if (S[I] == '1')
        V |= uint64_t(1) << I;
    return V;
  };
  Steps.clear();
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::istringstream L(Line);
    std::string Index, Kind, Where, Tok;
    if (!(L >> Index >> Kind >> Where))
      return false;
    reach::WitnessStep St;
    if (Kind == "init")
      St.Kind = reach::WitnessStepKind::Init;
    else if (Kind == "step")
      St.Kind = reach::WitnessStepKind::Internal;
    else if (Kind == "call")
      St.Kind = reach::WitnessStepKind::Call;
    else if (Kind == "return")
      St.Kind = reach::WitnessStepKind::Return;
    else
      return false;
    size_t At = Where.rfind('@');
    if (At == std::string::npos)
      return false;
    auto Id = P.Prog->ProcIds.find(Where.substr(0, At));
    if (Id == P.Prog->ProcIds.end())
      return false;
    St.ProcId = Id->second;
    St.Pc = unsigned(std::strtoul(Where.c_str() + At + 1, nullptr, 10));
    bool SawL = false, SawG = false;
    while (L >> Tok) {
      if (Tok.rfind("L=", 0) == 0) {
        St.Locals = Bits(Tok.substr(2));
        SawL = true;
      } else if (Tok.rfind("G=", 0) == 0) {
        St.Globals = Bits(Tok.substr(2));
        SawG = true;
      }
    }
    if (!SawL || !SawG)
      return false;
    Steps.push_back(St);
  }
  return !Steps.empty();
}

//===----------------------------------------------------------------------===//
// Measurements
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TraceFile;
};

struct Measurements {
  std::vector<double> SetupS;
  std::vector<double> WallS;       ///< Untraced repetitions.
  std::vector<double> TracedWallS; ///< Traced repetitions.
  std::vector<double> LatencyMs;   ///< Per query, untraced repetitions.
  double TimedS = 0.0;             ///< Summed wall of untraced repetitions.
  uint64_t Completed = 0;          ///< Queries in untraced repetitions.
  std::vector<double> ServerPeakRssMiB; ///< One per getafixd process.
  /// The driver's own peak resident set after its first set-up rounds and
  /// repetition, the peak of one pass over the workload.
  double FirstPassPeakRssMiB = 0.0;
  std::map<std::string, double> Layer;
};

/// Runs repetitions until \p O.Seconds have passed, each after
/// \p SetupRounds calls of \p Setup. Each setup round is timed into
/// `setup_s`. Interleaving them with the repetitions samples set-up over the
/// whole run, as the query set is sampled: the host slows down for seconds
/// at a time, and rounds made back to back all landed in the same slow or
/// fast stretch. In a traced run odd repetitions (and their set-up) are
/// traced and even ones are not, so the two medians give the tracing
/// overhead; a traced run makes at least two repetitions.
void repeat(const Options &O, Measurements &M, unsigned SetupRounds,
            const std::function<void(unsigned Rep)> &Setup,
            const std::function<double(unsigned Rep, bool Traced)> &Rep) {
  Clock::time_point T0 = Clock::now();
  unsigned MinReps = O.Trace ? 2 : 1;
  for (unsigned I = 0;; ++I) {
    bool Traced = O.Trace && I % 2 == 1;
    TheTracer.setEnabled(Traced);
    for (unsigned S = 0; S < SetupRounds; ++S) {
      TraceScope SS("setup", "bench", I);
      Clock::time_point S0 = Clock::now();
      Setup(I);
      M.SetupS.push_back(secondsSince(S0));
    }
    double Wall = Rep(I, Traced);
    if (I == 0)
      M.FirstPassPeakRssMiB = peakRssMiB();
    (Traced ? M.TracedWallS : M.WallS).push_back(Wall);
    if (!Traced)
      M.TimedS += Wall;
    if (I + 1 >= MinReps && secondsSince(T0) >= O.Seconds)
      break;
  }
  TheTracer.setEnabled(false);
}

/// Folds one solve's library counters into \p L (sums, and maxima for
/// widths and peaks).
void addSolveCounters(std::map<std::string, double> &L,
                      const api::SolveResult &R) {
  auto Max = [&L](const char *K, double V) { L[K] = std::max(L[K], V); };
  L["fpcalc.iterations"] += double(R.Iterations);
  L["fpcalc.delta_rounds"] += double(R.DeltaRounds);
  Max("fpcalc.condensation_width", R.CondensationWidth);
  Max("fpcalc.summary_relations", R.SummaryRelations);
  L["fpcalc.sccs_solved_parallel"] += double(R.SccsSolvedParallel);
  L["fpcalc.imported_nodes"] += double(R.ImportedNodes);
  L["fpcalc.rounds_parallel"] += double(R.RoundsParallel);
  L["bdd.nodes_created"] += double(R.Bdd.NodesCreated);
  L["bdd.cache_lookups"] += double(R.Bdd.CacheLookups);
  L["bdd.cache_hits"] += double(R.Bdd.CacheHits);
  for (unsigned Op = 0; Op < NumBddOps; ++Op) {
    std::string N = bddOpName(BddOp(Op));
    L["bdd.lookups." + N] += double(R.Bdd.OpLookups[Op]);
    L["bdd.hits." + N] += double(R.Bdd.OpHits[Op]);
  }
  Max("bdd.peak_live_nodes", double(R.Bdd.PeakNodes));
  L["bdd.gc_runs"] += double(R.Bdd.GcRuns);
  L["bdd.summary_nodes"] += double(R.SummaryNodes);
  L["concurrent.reach_states"] += R.ReachStates;
}

/// Turns the hit counters `addSolveCounters` summed into rates.
void finishBddRates(std::map<std::string, double> &L) {
  auto Rate = [](double Hits, double Lookups) {
    return Lookups > 0 ? Hits / Lookups : 0.0;
  };
  L["bdd.cache_hit_rate"] = Rate(L["bdd.cache_hits"], L["bdd.cache_lookups"]);
  for (unsigned Op = 0; Op < NumBddOps; ++Op) {
    std::string N = bddOpName(BddOp(Op));
    L["bdd.hit_rate." + N] = Rate(L["bdd.hits." + N], L["bdd.lookups." + N]);
  }
}

//===----------------------------------------------------------------------===//
// Workload: bluetooth-k4
//===----------------------------------------------------------------------===//

constexpr unsigned BtAdders = 2, BtStoppers = 2, BtContextBound = 4,
                   BtWarmUpBound = 2;
/// Set-up rounds before each repetition on the two one-shot workloads.
constexpr unsigned SetupRoundsPerRep = 4;

void runBluetooth(const Options &O, Measurements &M, Tally &T) {
  SolverOptions Opts;
  Opts.Engine = "conc";
  Opts.Threads = 1;
  std::string Source;
  std::vector<double> ParseS, OpenS;
  auto Setup = [&](unsigned Rep) {
    Source = gen::bluetoothModel(BtAdders, BtStoppers);
    ConcProgram P;
    Clock::time_point P0 = Clock::now();
    if (!parseConc(Source, P))
      T.record(false, "bluetooth model does not parse");
    ParseS.push_back(secondsSince(P0));
    // Warm-up pass at context bound 2, where Figure 3 has ERR unreachable.
    SolverOptions Warm = Opts;
    Warm.ContextBound = BtWarmUpBound;
    Clock::time_point Q0 = Clock::now();
    api::SolveResult Res;
    {
      TraceScope WS("Solver::solve warm-up", "api", Rep);
      Res = Solver::solve(Query::fromSource(Source).target("ERR"), Warm);
    }
    OpenS.push_back(secondsSince(Q0));
    checkQuery(T, "bluetooth-k2 warm-up ERR", Res, /*Expect=*/false);
  };

  Opts.ContextBound = BtContextBound;
  std::vector<double> SolveS;
  repeat(O, M, SetupRoundsPerRep, Setup, [&](unsigned Rep, bool Traced) {
    TraceScope R("repetition", "bench", Rep);
    Clock::time_point T0 = Clock::now();
    api::SolveResult Res;
    {
      TraceScope S("Solver::solve", "api", Rep);
      Res = Solver::solve(Query::fromSource(Source).target("ERR"), Opts);
    }
    double Wall = secondsSince(T0);
    // Figure 3: two adders and two stoppers reach ERR at >= 3 switches.
    checkQuery(T, "bluetooth-k4 ERR", Res, /*Expect=*/true);
    SolveS.push_back(Wall);
    if (!Traced) {
      M.LatencyMs.push_back(Wall * 1e3);
      ++M.Completed;
    }
    std::map<std::string, double> L;
    addSolveCounters(L, Res);
    finishBddRates(L);
    L["bdd.ns_per_node_created"] =
        L["bdd.nodes_created"] > 0 ? Res.Seconds * 1e9 / L["bdd.nodes_created"]
                                   : 0.0;
    for (const auto &[K, V] : L)
      M.Layer[K] = V; // Counters repeat exactly; the last repetition's.
    return Wall;
  });
  M.Layer["bp.parse_s"] = median(ParseS);
  M.Layer["api.open_s"] = median(OpenS);
  M.Layer["api.solve_s"] = median(SolveS);
}

//===----------------------------------------------------------------------===//
// Workload: seq-drivers
//===----------------------------------------------------------------------===//

/// The seq-drivers query set: reachable and unreachable 32-procedure
/// drivers (solved in parallel over their call graphs' SCCs), each from its
/// own generator seed, then witness queries on small reachable drivers.
/// One driver's solve time varies with its generator seed by a standard
/// deviation of 18-28% of the mean at 16 to 64 procedures alike (witnesses
/// by 52-60%), so the set's spread across workload seeds shrinks with the
/// number of drivers it sums, not with their size: 56 drivers of 32
/// procedures cost what 24 of 64 did, and spread about a fifth less.
struct DriverShape {
  unsigned Procs, Globals, Locals, Stmts;
};
constexpr DriverShape SeqVerdictShape = {32, 6, 4, 12};
constexpr DriverShape SeqWitnessShape = {12, 4, 3, 10};
constexpr unsigned SeqVerdictPairs = 28, SeqWitnessQueries = 4;
/// Two solver threads, not one per CPU: at four, every SCC round waited on
/// whichever worker the shared host had just preempted, and the run-to-run
/// spread of `wall_s` over ten seeds reached 0.20-0.26.
constexpr unsigned SeqThreads = 2, SeqWarmUpDrivers = 4;

gen::Workload seqDriver(const DriverShape &D, bool Reachable, uint64_t Seed) {
  gen::DriverParams P;
  P.NumProcs = D.Procs;
  P.NumGlobals = D.Globals;
  P.LocalsPerProc = D.Locals;
  P.StmtsPerProc = D.Stmts;
  P.Reachable = Reachable;
  P.Seed = Seed;
  return gen::driverProgram(P);
}

void runSeqDrivers(const Options &O, Measurements &M, Tally &T) {
  SolverOptions Opts;
  Opts.Threads = SeqThreads;

  struct Case {
    std::string Name;
    gen::Workload W;
    bool Witness = false;
    SeqProgram P;
  };
  std::vector<Case> Cases;
  std::vector<double> ParseS, OpenS;
  auto Setup = [&](unsigned Rep) {
    Cases.clear();
    // Generator seeds derive from the workload seed; every program has
    // its own.
    uint64_t Base = O.Seed * 1000;
    for (unsigned U = 0; U < SeqVerdictPairs; ++U)
      for (bool Reachable : {true, false}) {
        uint64_t Seed = Base + 2 * U + (Reachable ? 0 : 1);
        Cases.push_back({(Reachable ? "pos-" : "neg-") +
                             std::to_string(Seed),
                         seqDriver(SeqVerdictShape, Reachable, Seed), false,
                         {}});
      }
    for (unsigned U = 0; U < SeqWitnessQueries; ++U) {
      uint64_t Seed = Base + 500 + U;
      Cases.push_back({"witness12-" + std::to_string(Seed),
                       seqDriver(SeqWitnessShape, true, Seed), true, {}});
    }
    Clock::time_point P0 = Clock::now();
    for (Case &C : Cases)
      if (!parseSeq(C.W.Source, C.P))
        T.record(false, C.Name + " does not parse");
    ParseS.push_back(secondsSince(P0));

    // Warm-up: open small drivers as sessions and answer their verdicts,
    // which pages in the engine and grows the allocator. They are the same
    // for every workload seed, so set-up cost does not depend on it.
    Clock::time_point Q0 = Clock::now();
    for (unsigned U = 0; U < SeqWarmUpDrivers; ++U) {
      gen::Workload W = seqDriver(SeqWitnessShape, true, U + 1);
      api::SolveResult Warm;
      {
        TraceScope OS("Solver::open+first query", "api", Rep);
        std::unique_ptr<SolverSession> Sess =
            Solver::open(Query::fromSource(W.Source), Opts);
        Warm = Sess->solve(Query().target("ERR"));
      }
      checkQuery(T, "seq-drivers warm-up " + W.Name, Warm, W.ExpectReachable);
    }
    OpenS.push_back(secondsSince(Q0));
  };

  std::vector<double> SolveS, WitnessS;
  repeat(O, M, SetupRoundsPerRep, Setup, [&](unsigned Rep, bool Traced) {
    TraceScope R("repetition", "bench", Rep);
    std::map<std::string, double> L;
    double Wall = 0.0, VerdictS = 0.0;
    for (Case &C : Cases) {
      Clock::time_point T0 = Clock::now();
      api::SolveResult Res;
      {
        TraceScope S(C.Witness ? "Solver::solve witness" : "Solver::solve",
                     C.Witness ? "reach" : "api", Rep);
        Res = Solver::solve(
            Query::fromSource(C.W.Source).target("ERR").witness(C.Witness),
            Opts);
      }
      double Q = secondsSince(T0);
      Wall += Q;
      checkQuery(T, "seq-drivers " + C.Name, Res,
                 C.W.ExpectReachable, C.Witness ? &C.P : nullptr);
      if (!Traced) {
        M.LatencyMs.push_back(Q * 1e3);
        ++M.Completed;
      }
      addSolveCounters(L, Res);
      if (C.Witness) {
        WitnessS.push_back(Q);
        L["reach.witness_iterations"] += double(Res.Iterations);
        L["reach.witness_steps"] += double(Res.Witness.size());
      } else {
        SolveS.push_back(Q);
        VerdictS += Res.Seconds;
        L["verdict.nodes_created"] += double(Res.Bdd.NodesCreated);
      }
    }
    finishBddRates(L);
    L["bdd.ns_per_node_created"] = L["verdict.nodes_created"] > 0
                                       ? VerdictS * 1e9 /
                                             L["verdict.nodes_created"]
                                       : 0.0;
    L.erase("verdict.nodes_created");
    for (const auto &[K, V] : L)
      M.Layer[K] = V;
    return Wall;
  });
  M.Layer["bp.parse_s"] = median(ParseS);
  M.Layer["api.open_s"] = median(OpenS);
  M.Layer["api.solve_s"] = median(SolveS);
  M.Layer["reach.witness_s"] = median(WitnessS);
}

//===----------------------------------------------------------------------===//
// Workload: serve-mixed
//===----------------------------------------------------------------------===//

constexpr unsigned ServeClients = 4, ServeWorkers = 4;
constexpr unsigned ServeRequestsPerClient = 24; ///< 96 requests a repetition.
constexpr unsigned ServeTerminatorBits = 8, ServeWitnessBits = 5;
/// Generator seed of the two served drivers, the same for every workload
/// seed, so the mix's footprint does not depend on the workload seed: near
/// the constant budget below, a few percent of footprint decide how often a
/// run evicts. The workload seed picks the terminators and the request
/// order instead.
constexpr uint64_t ServeDriverSeed = 1;
/// The pool's memory budget. It is a constant, not derived from anything
/// the code under test reports, so a change that makes sessions larger (a
/// bigger computed cache, say) meets the same budget and pays for it here
/// in cache clears and evictions. 17 MiB is 0.75 of the 22.6 MiB footprint
/// estimate the mix reached unconstrained after the warm-up, measured when
/// the benchmark was added; under it about 45 clears and 2 evictions fire
/// per repetition while pool hits stay near 98% of lookups.
constexpr size_t ServeBudgetBytes = size_t(17) << 20;

struct ServedProgram {
  std::string Name;
  std::string Source;
  std::vector<std::string> Targets;
  std::vector<bool> Expect; ///< Ground truth per target.
  bool Sequential = true;
  SeqProgram Seq;           ///< Benchmark-side parse (sequential only).
};

enum class ReqKind { Single, Batch, Witness };

struct Planned {
  unsigned Program = 0;
  std::vector<unsigned> Targets; ///< Indices into the program's targets.
  ReqKind Kind = ReqKind::Single;
};

struct Reply {
  Planned Req;
  server::Json Resp;
  double RttMs = 0.0;
  std::string TransportError;
};

/// The served program witness requests go to (see `servedPrograms`).
constexpr unsigned WitnessProgram = 4;

/// Each client's offset into the program and target rotation, drawn from
/// the workload seed (splitmix64): the seed decides which programs the
/// clients ask for at the same time.
std::vector<unsigned> rotationOffsets(uint64_t Seed) {
  std::vector<unsigned> Out;
  uint64_t X = Seed;
  for (unsigned C = 0; C < ServeClients; ++C) {
    X += 0x9e3779b97f4a7c15ull;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    Out.push_back(unsigned((Z ^ (Z >> 31)) % 360));
  }
  return Out;
}

/// The request a client sends as its \p R-th: every 8th a witness request,
/// every 4th the program's full target batch, else one rotating target.
/// The witness slot is staggered per client; the program and target
/// rotation start at the client's \p Offset.
Planned planRequest(const std::vector<ServedProgram> &Ps, unsigned Client,
                    unsigned Offset, unsigned R) {
  Planned P;
  if ((R + Client) % 8 == 7) {
    P.Program = WitnessProgram;
    P.Targets = {0};
    P.Kind = ReqKind::Witness;
    return P;
  }
  unsigned Turn = R + Offset;
  P.Program = Turn % unsigned(Ps.size());
  const ServedProgram &SP = Ps[P.Program];
  if (R % 4 == 0) {
    for (unsigned I = 0; I < SP.Targets.size(); ++I)
      P.Targets.push_back(I);
    P.Kind = ReqKind::Batch;
  } else {
    P.Targets = {Turn / unsigned(Ps.size()) % unsigned(SP.Targets.size())};
  }
  return P;
}

server::Json requestJson(const std::vector<ServedProgram> &Ps,
                         const Planned &P) {
  server::Json Ts = server::Json::array();
  for (unsigned I : P.Targets)
    Ts.add(server::Json::str(Ps[P.Program].Targets[I]));
  server::Json Req = server::Json::object()
                         .set("op", server::Json::str("solve"))
                         .set("source", server::Json::str(Ps[P.Program].Source))
                         .set("targets", std::move(Ts));
  if (P.Kind == ReqKind::Witness)
    Req.set("witness", server::Json::boolean(true));
  return Req;
}

/// One client connection speaking the line protocol.
class Client {
public:
  bool connect(unsigned Port, std::string &Error) {
    Conn = support::connectTcp("127.0.0.1", Port, &Error);
    if (!Conn.valid())
      return false;
    Reader = std::make_unique<support::LineReader>(Conn.fd());
    return true;
  }

  bool roundTrip(const server::Json &Req, server::Json &Resp,
                 std::string &Error) {
    if (!support::writeAll(Conn.fd(), Req.dump() + "\n", &Error))
      return false;
    std::string Line;
    if (Reader->readLine(Line, -1) != support::LineReader::Status::Line) {
      Error = "connection closed mid-request";
      return false;
    }
    if (!server::Json::parse(Line, Resp, Error)) {
      Error = "bad response JSON: " + Error;
      return false;
    }
    return true;
  }

private:
  support::Socket Conn;
  std::unique_ptr<support::LineReader> Reader;
};

double jsonNumber(const server::Json &J, const char *Key) {
  const server::Json *V = J.find(Key);
  return V && V->isNumber() ? V->asNumber() : 0.0;
}

/// What the server's rows report, summed over the checked replies.
struct RowCounts {
  uint64_t Rows = 0;
  uint64_t Reused = 0; ///< Rows answered partly from solved state.
  double Iterations = 0.0;
  double SummaryNodes = 0.0; ///< Largest row summary.
  double PeakLiveNodes = 0.0; ///< Largest session peak.
  std::vector<double> WitnessS, WitnessIterations, WitnessSteps;
};

/// Checks one reply's rows against ground truth and replays its witnesses.
void checkReply(Tally &T, const std::vector<ServedProgram> &Ps,
                const Reply &R, RowCounts &C) {
  const ServedProgram &P = Ps[R.Req.Program];
  std::string What = "serve-mixed " + P.Name;
  if (!R.TransportError.empty()) {
    for (size_t I = 0; I < R.Req.Targets.size(); ++I)
      T.record(false, What + ": " + R.TransportError);
    return;
  }
  const server::Json *Ok = R.Resp.find("ok");
  const server::Json *RowsJ = R.Resp.find("rows");
  if (!Ok || !Ok->isBool() || !Ok->asBool() || !RowsJ || !RowsJ->isArray() ||
      RowsJ->items().size() != R.Req.Targets.size()) {
    const server::Json *E = R.Resp.find("error");
    for (size_t I = 0; I < R.Req.Targets.size(); ++I)
      T.record(false, What + ": request failed: " +
                          (E && E->isString() ? E->asString() : "?"));
    return;
  }
  for (size_t I = 0; I < R.Req.Targets.size(); ++I) {
    const server::Json &Row = RowsJ->items()[I];
    const std::string &Label = P.Targets[R.Req.Targets[I]];
    bool Expect = P.Expect[R.Req.Targets[I]];
    ++C.Rows;
    if (jsonNumber(Row, "reused") > 0)
      ++C.Reused;
    C.Iterations += jsonNumber(Row, "iterations");
    C.SummaryNodes = std::max(C.SummaryNodes, jsonNumber(Row, "summary_nodes"));
    const server::Json *Reach = Row.find("reachable");
    std::string Problem;
    if (Row.find("error") || !Reach || !Reach->isBool())
      Problem = "error row";
    else if (Row.find("iteration_limit"))
      Problem = "stopped at the iteration limit";
    else if (Reach->asBool() != Expect)
      Problem = "wrong verdict";
    else if (R.Req.Kind == ReqKind::Witness && Expect) {
      const server::Json *W = Row.find("witness");
      std::vector<reach::WitnessStep> Steps;
      if (!W || !W->isString())
        Problem = "no witness returned";
      else if (!parseWitnessText(P.Seq, W->asString(), Steps))
        Problem = "witness text does not parse";
      else
        Problem = witnessProblem(P.Seq, Label, Steps);
      C.WitnessS.push_back(jsonNumber(Row, "seconds"));
      C.WitnessIterations.push_back(jsonNumber(Row, "iterations"));
      C.WitnessSteps.push_back(double(Steps.size()));
    }
    T.record(Problem.empty(), What + " " + Label + ": " + Problem);
  }
  if (const server::Json *S = R.Resp.find("session"))
    C.PeakLiveNodes = std::max(C.PeakLiveNodes, jsonNumber(*S, "peak_live_nodes"));
}

std::vector<ServedProgram> servedPrograms(uint64_t Seed, Tally &T) {
  std::vector<ServedProgram> Ps;

  gen::TerminatorParams TP;
  TP.CounterBits = ServeTerminatorBits;
  TP.LabeledCheckpoints = 4;
  TP.Reachable = false;
  TP.Seed = Seed;
  gen::Workload Term = gen::terminatorProgram(TP);
  ServedProgram TS;
  TS.Name = "terminator";
  TS.Source = Term.Source;
  for (unsigned J = 0; J < TP.LabeledCheckpoints; ++J) {
    TS.Targets.push_back("CP" + std::to_string(J)); // Behind a tautology.
    TS.Expect.push_back(true);
    TS.Targets.push_back("DEAD" + std::to_string(J)); // Behind a contradiction.
    TS.Expect.push_back(false);
  }
  TS.Targets.push_back("ERR");
  TS.Expect.push_back(Term.ExpectReachable);
  Ps.push_back(std::move(TS));

  ServedProgram BS;
  BS.Name = "bluetooth-1a1s";
  BS.Source = gen::bluetoothModel(1, 1, /*Labeled=*/true);
  BS.Sequential = false;
  BS.Targets = {"INIT_A0", "OK_A0",   "DEC_A0", "DEAD_A0",
                "STOP_S0", "DONE_S0", "DEAD_S0", "ERR"};
  Ps.push_back(std::move(BS));

  for (bool Reachable : {true, false}) {
    gen::DriverParams DP; // The default driver shape.
    DP.Reachable = Reachable;
    DP.Seed = ServeDriverSeed;
    gen::Workload W = gen::driverProgram(DP);
    ServedProgram DS;
    DS.Name = Reachable ? "driver-pos" : "driver-neg";
    DS.Source = W.Source;
    DS.Targets = {"ERR"};
    DS.Expect = {W.ExpectReachable};
    Ps.push_back(std::move(DS));
  }

  // Ground truth for the labeled bluetooth targets comes from the
  // explicit-state oracle at the server's context bound.
  ServedProgram &B = Ps[1];
  ConcProgram CP;
  if (!parseConc(B.Source, CP)) {
    T.record(false, "bluetooth-1a1s does not parse");
  } else {
    for (const std::string &Label : B.Targets) {
      interp::ConcurrentQuery Q;
      Q.MaxContextSwitches = SolverOptions().ContextBound;
      bool Found = false;
      for (unsigned Th = 0; Th < CP.Cfgs.size() && !Found; ++Th)
        if (CP.Cfgs[Th].findLabelPc(Label, Q.ProcId, Q.Pc)) {
          Q.Thread = Th;
          Found = true;
        }
      interp::ConcurrentOracleResult OR;
      if (Found)
        OR = interp::concurrentReachability(*CP.Prog, CP.Cfgs, Q);
      if (!Found || !OR.Exhaustive)
        T.record(false, "no oracle answer for bluetooth " + Label);
      B.Expect.push_back(OR.Reachable);
    }
  }
  // Witness requests go to a small reachable terminator: its trace length
  // and solve cost are fixed by the counter width, not by the seed.
  gen::TerminatorParams WP;
  WP.CounterBits = ServeWitnessBits;
  WP.Reachable = true;
  WP.Seed = Seed;
  gen::Workload WT = gen::terminatorProgram(WP);
  ServedProgram WS;
  WS.Name = "terminator-witness";
  WS.Source = WT.Source;
  WS.Targets = {"ERR"};
  WS.Expect = {WT.ExpectReachable};
  Ps.push_back(std::move(WS));

  for (ServedProgram &P : Ps)
    if (P.Sequential && !parseSeq(P.Source, P.Seq))
      T.record(false, P.Name + " does not parse");
  return Ps;
}

/// A getafixd process, built with this driver, on a kernel-assigned
/// loopback port. Measuring the shipped daemon keeps its allocator policy
/// and its resident set apart from the driver's.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  bool start(size_t BudgetBytes, std::string &Error) {
    std::vector<std::string> Args = {
        GETAFIXD_PATH, "--port", "0", "--workers",
        std::to_string(ServeWorkers), "--threads", "1", "--budget-bytes",
        std::to_string(BudgetBytes)};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    int Out[2];
    if (pipe(Out) != 0) {
      Error = "pipe failed";
      return false;
    }
    std::fflush(stdout);
    Pid = fork();
    if (Pid == 0) {
      // Only async-signal-safe calls between fork and exec. The daemon
      // gets SIGTERM should this driver die first.
      dup2(Out[1], STDOUT_FILENO);
      close(Out[0]);
      close(Out[1]);
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      execv(Argv[0], Argv.data());
      _exit(127);
    }
    close(Out[1]);
    if (Pid < 0) {
      close(Out[0]);
      Error = "fork failed";
      return false;
    }
    OutFd = Out[0];
    // getafixd prints "listening PORT" once it accepts connections.
    support::LineReader Reader(OutFd);
    std::string Line;
    if (Reader.readLine(Line, 30000) != support::LineReader::Status::Line ||
        Line.rfind("listening ", 0) != 0) {
      Error = "getafixd did not start: '" + Line + "'";
      stop();
      return false;
    }
    Port = unsigned(std::strtoul(Line.c_str() + 10, nullptr, 10));
    return true;
  }

  unsigned port() const { return Port; }

  /// Shuts the daemon down (SIGTERM: it drains and exits), waits for it,
  /// and returns its peak resident set in MiB. \p Clean, when given, says
  /// whether it exited with status 0.
  double stop(bool *Clean = nullptr) {
    double PeakMiB = 0.0;
    bool Exited0 = false;
    if (Pid > 0) {
      kill(Pid, SIGTERM);
      int Status = 0;
      struct rusage U = {};
      while (wait4(Pid, &Status, 0, &U) < 0 && errno == EINTR) {
      }
      PeakMiB = double(U.ru_maxrss) / 1024.0; // KiB on Linux.
      Exited0 = WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
      Pid = -1;
    }
    if (Clean)
      *Clean = Exited0;
    if (OutFd >= 0) {
      close(OutFd);
      OutFd = -1;
    }
    return PeakMiB;
  }

private:
  pid_t Pid = -1;
  int OutFd = -1;
  unsigned Port = 0;
};

/// The server's `stats` response, over an open connection: every worker
/// owns one connection, so a fresh one would wait behind the clients.
server::Json fetchStats(Client &C, std::string &Error) {
  server::Json Resp;
  C.roundTrip(server::Json::object().set("op", server::Json::str("stats")),
              Resp, Error);
  return Resp;
}

double poolCounter(const server::Json &Stats, const char *Key) {
  const server::Json *Pool = Stats.find("pool");
  return Pool ? jsonNumber(*Pool, Key) : 0.0;
}

void runServeMixed(const Options &O, Measurements &M, Tally &T) {
  std::vector<ServedProgram> Ps = servedPrograms(O.Seed, T);
  if (Ps[1].Expect.size() != Ps[1].Targets.size())
    return;

  std::vector<unsigned> Offsets = rotationOffsets(O.Seed);

  // Every repetition gets a getafixd of its own: set-up starts it, connects
  // the clients and sends each program's batch once, which opens its
  // session; the repetition then runs the closed loop against it.
  Daemon Server;
  std::vector<Client> Clients;
  server::Json Before;
  bool Ready = false;
  std::vector<double> ParseS, OpenS, WarmFootprintBytes;
  RowCounts Warm;
  auto Setup = [&](unsigned) {
    Ready = false;
    Clients.clear();
    Server.stop(); // Only after a failed set-up; repetitions stop their own.
    // Parse and CFG of every program the mix serves, as the server's
    // reopens pay them.
    Clock::time_point P0 = Clock::now();
    for (const ServedProgram &P : Ps) {
      SeqProgram SP;
      ConcProgram CP;
      if (!(P.Sequential ? parseSeq(P.Source, SP) : parseConc(P.Source, CP)))
        T.record(false, P.Name + " does not parse");
    }
    ParseS.push_back(secondsSince(P0));
    std::string Error;
    if (!Server.start(ServeBudgetBytes, Error)) {
      T.record(false, "server does not start: " + Error);
      return;
    }
    Clients = std::vector<Client>(ServeClients);
    for (Client &C : Clients)
      if (!C.connect(Server.port(), Error)) {
        T.record(false, "cannot connect: " + Error);
        return;
      }
    double Open = 0.0;
    for (unsigned Prog = 0; Prog < Ps.size(); ++Prog) {
      Reply R;
      R.Req.Program = Prog;
      R.Req.Kind = ReqKind::Batch;
      for (unsigned J = 0; J < Ps[Prog].Targets.size(); ++J)
        R.Req.Targets.push_back(J);
      Clock::time_point Q0 = Clock::now();
      {
        TraceScope RS("warm-up request", "server", Prog);
        if (!Clients[0].roundTrip(requestJson(Ps, R.Req), R.Resp,
                                  R.TransportError) &&
            R.TransportError.empty())
          R.TransportError = "request failed";
      }
      Open += secondsSince(Q0);
      checkReply(T, Ps, R, Warm);
    }
    OpenS.push_back(Open);
    Before = fetchStats(Clients[0], Error);
    Ready = Before.find("pool") != nullptr;
    WarmFootprintBytes.push_back(poolCounter(Before, "footprint_bytes"));
    if (!Ready)
      T.record(false, "stats request failed: " + Error);
  };

  std::map<ReqKind, std::vector<double>> RttByKind;
  std::vector<double> WaitMs, SolverS, FootprintBytes;
  std::map<std::string, double> PoolTotals;
  server::Json After;
  RowCounts Counts;
  uint64_t NextRequest = 0;
  repeat(O, M, 1, Setup, [&](unsigned Rep, bool Traced) {
    if (!Ready)
      return 0.0;
    TraceScope RS("repetition", "bench", Rep);
    int64_t Parent = RS.id();
    std::vector<std::vector<Reply>> Out(ServeClients);
    Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < ServeClients; ++C)
      Threads.emplace_back([&, C] {
        ThreadIndex = C + 1;
        TraceScope CS("client", "bench", C, Parent);
        for (unsigned I = 0; I < ServeRequestsPerClient; ++I) {
          unsigned R = Rep * ServeRequestsPerClient + I;
          Reply Rp;
          Rp.Req = planRequest(Ps, C, Offsets[C], R);
          server::Json Req = requestJson(Ps, Rp.Req);
          Clock::time_point Q0 = Clock::now();
          {
            TraceScope QS("request", "server",
                          NextRequest + C * ServeRequestsPerClient + I);
            if (!Clients[C].roundTrip(Req, Rp.Resp, Rp.TransportError) &&
                Rp.TransportError.empty())
              Rp.TransportError = "request failed";
          }
          Rp.RttMs = secondsSince(Q0) * 1e3;
          Out[C].push_back(std::move(Rp));
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
    double Wall = secondsSince(T0);
    NextRequest += ServeClients * ServeRequestsPerClient;

    std::string Error;
    After = fetchStats(Clients[0], Error);
    if (!After.find("pool"))
      T.record(false, "stats request failed: " + Error);
    for (const char *K :
         {"lookups", "hits", "reopens", "cache_clears", "evictions"})
      PoolTotals[K] += poolCounter(After, K) - poolCounter(Before, K);
    FootprintBytes.push_back(poolCounter(After, "footprint_bytes"));
    Clients.clear();
    bool Clean = false;
    M.ServerPeakRssMiB.push_back(Server.stop(&Clean));
    if (!Clean)
      T.record(false, "getafixd did not exit cleanly");

    for (const std::vector<Reply> &Rs : Out)
      for (const Reply &R : Rs) {
        checkReply(T, Ps, R, Counts);
        double Solver = jsonNumber(R.Resp, "seconds");
        RttByKind[R.Req.Kind].push_back(R.RttMs);
        WaitMs.push_back(R.RttMs - Solver * 1e3);
        SolverS.push_back(Solver);
        if (!Traced) {
          M.LatencyMs.push_back(R.RttMs);
          ++M.Completed;
        }
      }
    return Wall;
  });

  M.Layer["bp.parse_s"] = median(ParseS);
  M.Layer["api.open_s"] = median(OpenS);
  double Reps = double(M.WallS.size() + M.TracedWallS.size());
  double Sum = 0.0;
  for (double S : SolverS)
    Sum += S;
  M.Layer["server.rtt_ms.single"] = median(RttByKind[ReqKind::Single]);
  M.Layer["server.rtt_ms.batch"] = median(RttByKind[ReqKind::Batch]);
  M.Layer["server.rtt_ms.witness"] = median(RttByKind[ReqKind::Witness]);
  M.Layer["server.solver_s"] = Sum / Reps;
  M.Layer["server.wait_ms"] = median(WaitMs);
  M.Layer["server.reuse_ratio"] =
      Counts.Rows ? double(Counts.Reused) / double(Counts.Rows) : 0.0;
  M.Layer["api.solve_s"] = median(SolverS);
  M.Layer["fpcalc.iterations"] = Counts.Iterations / Reps;
  M.Layer["bdd.summary_nodes"] = Counts.SummaryNodes;
  M.Layer["bdd.peak_live_nodes"] = Counts.PeakLiveNodes;
  M.Layer["reach.witness_s"] = median(Counts.WitnessS);
  M.Layer["reach.witness_iterations"] = median(Counts.WitnessIterations);
  M.Layer["reach.witness_steps"] = median(Counts.WitnessSteps);
  M.Layer["server.pool.hit_ratio"] =
      PoolTotals["lookups"] > 0 ? PoolTotals["hits"] / PoolTotals["lookups"]
                                : 0.0;
  M.Layer["server.pool.reopens"] = PoolTotals["reopens"];
  M.Layer["server.pool.cache_clears"] = PoolTotals["cache_clears"];
  M.Layer["server.pool.evictions"] = PoolTotals["evictions"];
  M.Layer["server.pool.footprint_bytes"] = median(FootprintBytes);
  std::printf("pool budget %.2f MiB; footprint after the warm-up %.2f MiB, "
              "after a repetition %.2f MiB (medians)\n",
              double(ServeBudgetBytes) / (1 << 20),
              median(WarmFootprintBytes) / (1 << 20),
              median(FootprintBytes) / (1 << 20));
  if (const server::Json *S = After.find("server")) {
    M.Layer["fpcalc.condensation_width"] = jsonNumber(*S, "condensation_width");
    M.Layer["fpcalc.summary_relations"] = jsonNumber(*S, "summary_relations");
  }
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

std::string formatNumber(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(const Options &O, const Measurements &M, const Tally &T) {
  std::map<std::string, double> Values;
  const std::vector<MetricDef> *Defs;
  TailPick Tail = tailPercentile(M.LatencyMs);
  if (!O.Trace) {
    Defs = &endToEndMetrics();
    Values["setup_s"] = median(M.SetupS);
    Values["wall_s"] = median(M.WallS);
    Values["latency_p50_ms"] = median(M.LatencyMs);
    Values["latency_tail_ms"] = Tail.Value;
    Values["throughput_qps"] =
        M.TimedS > 0 ? double(M.Completed) / M.TimedS : 0.0;
    // serve-mixed runs its workload in getafixd processes. The one-shot
    // workloads take the peak of the first pass: repeating the same query
    // set leaves freed blocks in the heap, and on some seq-drivers seeds
    // the peak grew by half over three repetitions, so a whole run's peak
    // depended on how many repetitions the host's speed let it fit.
    Values["peak_rss_mb"] = M.ServerPeakRssMiB.empty()
                                ? M.FirstPassPeakRssMiB
                                : median(M.ServerPeakRssMiB);
  } else {
    Defs = &perLayerMetrics();
    Values = M.Layer;
    Values["api.queries"] = double(T.attempted());
    Values["api.failed_frac"] = T.failedFraction();
    Values["latency_tail.pct"] = Tail.Pct;
    Values["latency_tail.samples"] = double(Tail.Samples);
    Values["trace.overhead_s"] = median(M.TracedWallS) - median(M.WallS);
    std::vector<Span> Spans = TheTracer.spans();
    Values["trace.spans"] = double(Spans.size());
    for (const auto &[Layer, S] : selfSecondsByLayer(Spans))
      Values["trace.self_s." + Layer] = S;
  }

  // Human-readable lines first; the JSON result is the last line.
  std::printf("workload %s  seed %llu  repetitions %zu  queries %llu  "
              "failed %llu\n",
              O.Workload.c_str(), (unsigned long long)O.Seed,
              M.WallS.size() + M.TracedWallS.size(),
              (unsigned long long)T.attempted(),
              (unsigned long long)T.failed());
  std::printf("latency_tail_ms is p%g over %zu samples (%zu beyond it)\n",
              Tail.Pct, Tail.Samples, Tail.Beyond);
  std::printf("wall_s per repetition:");
  for (double W : M.WallS)
    std::printf(" %.3f", W);
  std::printf("\nsetup_s per round:");
  for (double S : M.SetupS)
    std::printf(" %.3f", S);
  std::printf("\n");
  for (const std::string &Miss : T.misses())
    std::printf("MISS %s\n", Miss.c_str());

  std::string Json = "{\"correct\": ";
  Json += T.failed() == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(T.attempted());
  Json += ", \"failed\": " + std::to_string(T.failed());
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Defs->size(); ++I) {
    const MetricDef &D = (*Defs)[I];
    auto It = Values.find(D.Name);
    double V = It == Values.end() ? 0.0 : It->second;
    std::printf("  %-32s %s %s\n", D.Name.c_str(), formatNumber(V).c_str(),
                D.Unit.c_str());
    Json += (I ? ", " : "") + std::string("\"") + D.Name +
            "\": {\"value\": " + formatNumber(V) + ", \"unit\": \"" + D.Unit +
            "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Self-tests
//===----------------------------------------------------------------------===//

int selfTest() {
  int Failures = 0;
  auto Expect = [&Failures](bool Cond, const char *What) {
    std::printf("%s %s\n", Cond ? "ok  " : "FAIL", What);
    if (!Cond)
      ++Failures;
  };

  // Tail rule: at least ten samples above the pick, and fewer than ten
  // above the next higher candidate (samples are distinct here).
  for (size_t N : {size_t(5), size_t(21), size_t(50), size_t(96),
                   size_t(200), size_t(1000)}) {
    std::vector<double> V;
    for (size_t I = 0; I < N; ++I)
      V.push_back(double((I * 37) % N));
    TailPick T = tailPercentile(V);
    auto Above = [&V](double X) {
      return size_t(std::count_if(V.begin(), V.end(),
                                  [X](double Y) { return Y > X; }));
    };
    bool Ok;
    if (N < 21) {
      Ok = T.Pct == 100.0 && T.Value == double(N - 1);
    } else {
      double Higher = T.Pct == 99.9 ? 100.0 : T.Pct == 99.0 ? 99.9
                      : T.Pct == 95.0 ? 99.0 : T.Pct == 90.0 ? 95.0
                      : T.Pct == 75.0 ? 90.0 : 75.0;
      size_t HigherIdx = size_t(std::ceil(Higher / 100.0 * double(N))) - 1;
      Ok = Above(T.Value) >= 10 && T.Samples == N &&
           (Higher == 100.0 || Above(double(HigherIdx)) < 10);
    }
    std::string What = "tail percentile over " + std::to_string(N) +
                       " samples is p" + formatNumber(T.Pct);
    Expect(Ok, What.c_str());
  }
  Expect(tailPercentile(std::vector<double>(200, 1.0)).Pct == 95.0,
         "200 samples pick p95");

  // A genuine reachable witness query passes the gate...
  gen::DriverParams DP;
  DP.NumProcs = 8;
  DP.Seed = 3;
  gen::Workload W = gen::driverProgram(DP);
  SeqProgram P;
  Expect(parseSeq(W.Source, P), "driver parses");
  api::SolveResult R =
      Solver::solve(Query::fromSource(W.Source).target("ERR").witness(), {});
  {
    Tally T;
    checkQuery(T, "genuine", R, true, &P);
    Expect(T.failed() == 0 && T.attempted() == 1, "genuine answer passes");
  }
  // ...a tampered verdict raises failed_frac...
  {
    Tally T;
    api::SolveResult Bad = R;
    Bad.Reachable = !Bad.Reachable;
    checkQuery(T, "tampered verdict", Bad, true, &P);
    Expect(T.failedFraction() > 0, "tampered verdict raises failed_frac");
  }
  // ...and so does a tampered witness, in the API and in server text.
  {
    Tally T;
    api::SolveResult Bad = R;
    if (!Bad.Witness.empty())
      Bad.Witness.back().Globals ^= 1;
    if (Bad.Witness.size() > 1)
      Bad.Witness.erase(Bad.Witness.begin() + 1);
    checkQuery(T, "tampered witness", Bad, true, &P);
    Expect(T.failedFraction() > 0, "tampered witness raises failed_frac");
  }
  {
    std::vector<reach::WitnessStep> Steps;
    Expect(parseWitnessText(P, R.WitnessText, Steps) &&
               Steps.size() == R.Witness.size() &&
               witnessProblem(P, "ERR", Steps).empty(),
           "served witness text round-trips and replays");
    std::string Text = R.WitnessText;
    size_t G = Text.rfind("G=");
    if (G != std::string::npos && G + 2 < Text.size())
      Text[G + 2] = Text[G + 2] == '1' ? '0' : '1';
    bool Rejected = !parseWitnessText(P, Text, Steps) ||
                    !witnessProblem(P, "ERR", Steps).empty();
    Expect(Rejected, "tampered witness text is rejected");
  }
  // Self time subtracts the union of child intervals.
  {
    std::vector<Span> S(3);
    S[0] = {"root", "bench", 0.0, 10.0, -1, 0, 0};
    S[1] = {"a", "api", 1.0, 5.0, 0, 0, 1};
    S[2] = {"b", "api", 3.0, 7.0, 0, 0, 2};
    std::map<std::string, double> Self = selfSecondsByLayer(S);
    Expect(std::fabs(Self["bench"] - 4.0) < 1e-9 &&
               std::fabs(Self["api"] - 8.0) < 1e-9,
           "self time per layer");
  }
  std::printf("%s\n", Failures ? "selftest FAILED" : "selftest passed");
  return Failures ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload bluetooth-k4|seq-drivers|"
               "serve-mixed --seed N --seconds S --trace 0|1\n"
               "                 [--trace-file PATH]\n"
               "       perfbench --list-metrics | --selftest\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (Arg == "--selftest")
      return selfTest();
    if (Arg == "--list-metrics") {
      for (const MetricDef &D : endToEndMetrics())
        std::printf("end_to_end %s %s\n", D.Name.c_str(), D.Unit.c_str());
      for (const MetricDef &D : perLayerMetrics())
        std::printf("per_layer %s %s\n", D.Name.c_str(), D.Unit.c_str());
      return 0;
    }
    if (!V)
      return usage();
    ++I;
    if (Arg == "--workload")
      O.Workload = V;
    else if (Arg == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
      HaveSeed = true;
    } else if (Arg == "--seconds")
      O.Seconds = std::atof(V);
    else if (Arg == "--trace")
      O.Trace = std::string(V) == "1";
    else if (Arg == "--trace-file")
      O.TraceFile = V;
    else
      return usage();
  }
  if (!HaveSeed || O.Seconds <= 0)
    return usage();

  Measurements M;
  Tally T;
  TheTracer.setEnabled(O.Trace);
  if (O.Workload == "bluetooth-k4")
    runBluetooth(O, M, T);
  else if (O.Workload == "seq-drivers")
    runSeqDrivers(O, M, T);
  else if (O.Workload == "serve-mixed")
    runServeMixed(O, M, T);
  else
    return usage();
  TheTracer.setEnabled(false);

  if (T.attempted() == 0)
    T.record(false, "no query was checked");
  if (O.Trace && !O.TraceFile.empty() &&
      !writeChromeTrace(TheTracer.spans(), O.TraceFile)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", O.TraceFile.c_str());
    return 2;
  }
  printResult(O, M, T);
  return T.failed() == 0 ? 0 : 1;
}

//===- fpsolve.cpp - Standalone fixed-point calculus solver ---------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MUCKE stand-in as a standalone tool: reads a textual fixed-point
/// system (domains, input relations with `fact` tuples, `mu`/`nu`
/// equations), solves the requested relations symbolically, and prints
/// their tuples. This is the right-hand box of Figure 1 taken by itself —
/// the getafix front-end emits such files (`getafix --print-formula`), and
/// any analysis expressible in the calculus can be run directly,
/// Datalog-style.
///
///   fpsolve [options] <system.mu>
///     --eval <R[,S,...]>  relations to solve (default: the last defined
///                     one). Several relations run through ONE evaluator,
///                     so later queries reuse the summaries (completed
///                     SCCs) the earlier ones solved — the tool-level
///                     form of cross-query incrementality
///     --count         print only the tuple counts
///     --stats         print per-query and cumulative iteration/delta
///                     counts per relation
///     --threads n     worker threads for parallel SCC scheduling:
///                     independent dependency SCCs run on up to n
///                     workers, each with its own BDD manager, that live
///                     for one schedule (default 1; results
///                     bit-identical)
///     --timeout-ms n  wall-clock deadline for the whole run (0 = none)
///     --node-budget n cap on BDD nodes allocated (0 = unlimited)
///
/// Exit code: 0 if every solved relation is non-empty, 1 if any is empty,
/// 2 on usage or input errors, 4 when the deadline expired, 5 when the
/// node budget was exhausted.
///
//===----------------------------------------------------------------------===//

#include "fpcalc/Evaluator.h"
#include "fpcalc/Parser.h"
#include "support/ResourceGovernor.h"
#include "support/Strings.h"

#include <cstdio>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace getafix;
using namespace getafix::fpc;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fpsolve [--eval R[,S,...]] [--count] [--stats] "
               "[--threads n] [--timeout-ms n] [--node-budget n] "
               "<system.mu>\n");
  return 2;
}

/// Enumerates the tuples of \p Value over \p Rel's formals, printing at
/// most \p Limit rows. Returns the exact tuple count.
uint64_t printTuples(Evaluator &Ev, const System &Sys, RelId Rel,
                     const Bdd &Value, uint64_t Limit) {
  const Relation &R = Sys.relation(Rel);
  std::vector<uint64_t> Tuple(R.arity(), 0);
  uint64_t Count = 0;

  // Depth-first product of the formals' domains, restricting the BDD one
  // coordinate at a time so dead branches are pruned wholesale.
  struct Walker {
    Evaluator &Ev;
    const System &Sys;
    const Relation &R;
    std::vector<uint64_t> &Tuple;
    uint64_t &Count;
    uint64_t Limit;

    void go(unsigned I, const Bdd &Rest) {
      if (Rest.isZero())
        return;
      if (I == R.arity()) {
        ++Count;
        if (Count > Limit)
          return;
        std::printf("%s(", R.Name.c_str());
        for (size_t J = 0; J < Tuple.size(); ++J)
          std::printf("%s%llu", J ? ", " : "",
                      (unsigned long long)Tuple[J]);
        std::printf(")\n");
        return;
      }
      const Domain &D = Sys.domain(Sys.var(R.Formals[I]).Dom);
      // Wide bit-vector domains would explode the product; cap at the
      // values that actually occur by splitting on the BDD instead.
      for (uint64_t V = 0; V < D.Size; ++V) {
        Tuple[I] = V;
        go(I + 1, Rest & Ev.encodeEqConst(R.Formals[I], V));
      }
    }
  };

  Walker W{Ev, Sys, R, Tuple, Count, Limit};
  W.go(0, Value);
  return Count;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string File, EvalRel;
  bool CountOnly = false, Stats = false;
  unsigned Threads = 1;
  uint64_t TimeoutMs = 0;
  uint64_t NodeBudget = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--eval") {
      const char *V = Next();
      if (!V)
        return usage();
      EvalRel = V;
    } else if (Arg == "--count") {
      CountOnly = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--threads") {
      if (!parseUnsigned(Next(), Threads, 1, 256))
        return usage();
    } else if (Arg == "--timeout-ms") {
      if (!parseUnsigned(Next(), TimeoutMs))
        return usage();
    } else if (Arg == "--node-budget") {
      if (!parseUnsigned(Next(), NodeBudget))
        return usage();
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      File = Arg;
    }
  }
  if (File.empty())
    return usage();

  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
    return 2;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  DiagnosticEngine Diags;
  std::vector<Fact> Facts;
  auto Sys = parseSystem(Buffer.str(), Diags, &Facts);
  if (!Sys) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 2;
  }

  // Pick the relations to solve: the comma-separated --eval list, or the
  // last defined one. All of them run through ONE evaluator, so a later
  // relation's solve reuses every completed SCC (summary) an earlier one
  // left in the memo — the tool-level form of cross-query incrementality.
  std::vector<RelId> Rels;
  if (!EvalRel.empty()) {
    for (const std::string &Name : splitList(EvalRel)) {
      if (!Sys->hasRel(Name)) {
        std::fprintf(stderr, "error: unknown relation '%s'\n", Name.c_str());
        return 2;
      }
      RelId Rel = Sys->relId(Name);
      if (Sys->relation(Rel).isInput()) {
        std::fprintf(stderr, "error: '%s' is an input relation\n",
                     Name.c_str());
        return 2;
      }
      Rels.push_back(Rel);
    }
  } else {
    bool Found = false;
    RelId Last = 0;
    for (RelId R = 0; R < Sys->numRels(); ++R)
      if (!Sys->relation(R).isInput()) {
        Last = R;
        Found = true;
      }
    if (!Found) {
      std::fprintf(stderr, "error: no defined relation to solve\n");
      return 2;
    }
    Rels.push_back(Last);
  }

  BddManager Mgr;
  support::ResourceGovernor Gov;
  if (TimeoutMs != 0 || NodeBudget != 0) {
    if (TimeoutMs != 0)
      Gov.setDeadlineIn(int64_t(TimeoutMs));
    if (NodeBudget != 0)
      Gov.setNodeBudget(NodeBudget);
    Mgr.setGovernor(&Gov);
  }
  Evaluator Ev(*Sys, Mgr, Layout::sequential(*Sys, Mgr), Threads);
  bindFacts(Ev, *Sys, Facts);

  bool AnyEmpty = false;
  std::map<std::string, RelStats> PrevStats;
  for (size_t QueryIdx = 0; QueryIdx < Rels.size(); ++QueryIdx) {
    RelId Rel = Rels[QueryIdx];
    const std::string &RelName = Sys->relation(Rel).Name;
    if (Rels.size() > 1)
      std::printf("== %s ==\n", RelName.c_str());

    EvalResult Result;
    try {
      Result = Ev.evaluate(Rel);
    } catch (const support::ResourceInterrupt &RI) {
      std::fprintf(stderr, "fpsolve: solve of '%s' stopped: %s\n",
                   RelName.c_str(), support::resourceLimitName(RI.Limit));
      return RI.Limit == support::ResourceLimit::NodeBudget ? 5 : 4;
    }

    // Constrain each formal to its domain, and count over the formals'
    // bits only (all other manager variables are don't-care).
    Bdd Constrained = Result.Value;
    unsigned TupleBits = 0;
    for (VarId V : Sys->relation(Rel).Formals) {
      Constrained &= Ev.domainConstraint(V);
      TupleBits += unsigned(Ev.layout().bits(V).size());
    }
    double Exact = Constrained.satCount(Mgr.numVars()) /
                   std::pow(2.0, double(Mgr.numVars() - TupleBits));
    uint64_t Count = uint64_t(Exact + 0.5);
    AnyEmpty |= Count == 0;

    // Enumerating the domain product is only sensible for narrow tuples;
    // wide bit-vector relations report their count instead.
    const uint64_t PrintLimit = 10000;
    if (CountOnly || TupleBits > 24) {
      std::printf("%llu tuples\n", (unsigned long long)Count);
    } else {
      uint64_t Printed = printTuples(Ev, *Sys, Rel, Constrained, PrintLimit);
      if (Printed > PrintLimit)
        std::printf("... (%llu tuples total)\n", (unsigned long long)Count);
    }

    if (Stats) {
      // Per-query deltas against the last query's snapshot: relations a
      // query served purely from memo show up with zero new iterations.
      for (const auto &[Name, RS] : Ev.stats()) {
        RelStats Prev = PrevStats.count(Name) ? PrevStats[Name] : RelStats();
        std::printf("# %s: %llu iterations (%llu delta rounds), "
                    "%llu solves, %zu nodes\n",
                    Name.c_str(),
                    (unsigned long long)(RS.Iterations - Prev.Iterations),
                    (unsigned long long)(RS.DeltaRounds - Prev.DeltaRounds),
                    (unsigned long long)(RS.Evaluations - Prev.Evaluations),
                    RS.FinalNodes);
      }
      PrevStats = Ev.stats();
    }
  }

  if (Stats && Rels.size() > 1) {
    std::printf("== cumulative ==\n");
    for (const auto &[Name, RS] : Ev.stats())
      std::printf("# %s: %llu iterations (%llu delta rounds), %llu solves, "
                  "%zu nodes\n",
                  Name.c_str(), (unsigned long long)RS.Iterations,
                  (unsigned long long)RS.DeltaRounds,
                  (unsigned long long)RS.Evaluations, RS.FinalNodes);
  }
  if (Stats && Threads > 1) {
    const fpc::ParallelStats &PS = Ev.parallelStats();
    std::printf("# parallel: %llu sccs on %u threads, %llu schedules, "
                "%llu imported nodes\n",
                (unsigned long long)PS.SccsSolvedParallel, PS.Threads,
                (unsigned long long)PS.Schedules,
                (unsigned long long)PS.ImportedNodes);
  }

  return AnyEmpty ? 1 : 0;
}

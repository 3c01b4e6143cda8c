//===- Baselines.h - Comparison solvers (Moped/Bebop stand-ins) -*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two baseline columns of Figure 2, rebuilt per DESIGN.md's
/// substitution table:
///
///   - `mopedPostStar` — a *natively coded* symbolic summary solver in the
///     style of Moped's forward post* saturation: the fixpoint loop, image
///     computations, frontier-set simplification, renamings and variable
///     bookkeeping are hand-written C++ against the BDD package (precisely
///     the low-level programming style the paper's calculus replaces). It
///     uses classical frontier sets, which the paper contrasts with its
///     Relevant-PC restriction in Section 4.3.
///
///   - `bebopTabulate` — the classical explicit RHS path-edge/summary-edge
///     tabulation algorithm that underlies Bebop, reusing the oracle
///     engine; exact, reachable-only, but enumerative in the data domain.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_REACH_BASELINES_H
#define GETAFIX_REACH_BASELINES_H

#include "bdd/Bdd.h"
#include "bp/Cfg.h"
#include "support/ResourceGovernor.h"

#include <cstdint>
#include <string>

namespace getafix {
namespace reach {

struct BaselineResult {
  bool Reachable = false;
  bool TargetFound = true;
  /// Which governor limit stopped the solve (`None` = ran to completion).
  /// When set, `Reachable` reflects only the states found so far.
  support::ResourceLimit Limit = support::ResourceLimit::None;
  uint64_t Iterations = 0;  ///< Fixpoint rounds / worklist steps.
  size_t SummaryNodes = 0;  ///< Final BDD size (moped only).
  /// BDD-manager counters (nodes created, peak nodes, per-op cache split,
  /// GC; moped only — bebop is enumerative and reports zeros).
  BddStats Bdd;
  double Seconds = 0.0;
};

struct BaselineOptions {
  bool EarlyStop = true;
  size_t GcThreshold = 1u << 22;
  /// Resource governor for this solve (not owned; one-shot per attempt;
  /// see support/ResourceGovernor.h). A tripped limit is reported in
  /// `BaselineResult::Limit`. Null = ungoverned.
  support::ResourceGovernor *Governor = nullptr;
};

/// Moped-style native symbolic solver (see file comment).
BaselineResult mopedPostStar(const bp::ProgramCfg &Cfg, unsigned ProcId,
                             unsigned Pc,
                             const BaselineOptions &Opts = BaselineOptions());

BaselineResult
mopedPostStarLabel(const bp::ProgramCfg &Cfg, const std::string &Label,
                   const BaselineOptions &Opts = BaselineOptions());

/// Bebop-style explicit tabulation (see file comment). Only
/// `BaselineOptions::Governor` applies (the engine is enumerative — no
/// caches or GC, and a node budget cannot trip).
BaselineResult bebopTabulate(const bp::ProgramCfg &Cfg, unsigned ProcId,
                             unsigned Pc,
                             const BaselineOptions &Opts = BaselineOptions());

BaselineResult
bebopTabulateLabel(const bp::ProgramCfg &Cfg, const std::string &Label,
                   const BaselineOptions &Opts = BaselineOptions());

} // namespace reach
} // namespace getafix

#endif // GETAFIX_REACH_BASELINES_H

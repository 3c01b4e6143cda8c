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

#include "bp/Cfg.h"
#include "symbolic/Solve.h"

namespace getafix {
namespace reach {

/// Moped-style native symbolic solver (see file comment). Reads
/// `EarlyStop` and `Governor` from \p Config and reports its saturation
/// rounds as `Iterations`.
sym::SolveStats mopedPostStar(const bp::ProgramCfg &Cfg, unsigned ProcId,
                              unsigned Pc,
                              const sym::SolveConfig &Config = {});

/// Bebop-style explicit tabulation (see file comment). Only
/// `SolveConfig::Governor` applies (the engine is enumerative — no caches
/// or GC, and a node budget cannot trip); `Iterations` counts path edges,
/// and the BDD counters stay zero.
sym::SolveStats bebopTabulate(const bp::ProgramCfg &Cfg, unsigned ProcId,
                              unsigned Pc,
                              const sym::SolveConfig &Config = {});

} // namespace reach
} // namespace getafix

#endif // GETAFIX_REACH_BASELINES_H

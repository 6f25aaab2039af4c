//===- Runner.cpp - the layered end-to-end benchmark runner --------------===//
//
// Part of the lambda-ssa project, reproducing "Lambda the Ultimate SSA"
// (CGO 2022). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One single-threaded process runs one workload (fig9, higher_order or
/// compile) for a fixed time in whole rounds. A round compiles every
/// program of the workload from source under the "full" (lp -> rgn -> cf)
/// and "leanc" (direct) pipelines, runs both on the VM, and checks each
/// result against an independent reference (References.h) or, for
/// generated programs, the λpure oracle, plus leak freedom.
///
///   lzbench_runner --workload W --seed N --seconds S --trace 0|1
///                  [--tiny] [--source-id ID]
///   lzbench_runner --check-references
///
/// The last stdout line is one JSON object: {"correct", "attempted",
/// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
/// ones (medians over rounds); with --trace 1, rounds alternate between
/// untraced and traced, and the metrics are the per-layer ones from the
/// traced rounds: phase times from the spans compileProgram emits into an
/// obs::TraceSink, counters from obs::MetricsRegistry and the VM's opcode
/// histogram and heap profile. README.md documents every metric.
///
//===----------------------------------------------------------------------===//

#include "References.h"

#include "dialect/Dialects.h"
#include "driver/Driver.h"
#include "lambda/MiniLean.h"
#include "lower/Pipeline.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "programs/Generator.h"
#include "programs/Programs.h"
#include "runtime/Object.h"
#include "support/OStream.h"
#include "vm/VM.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace lz;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// Workload inputs
//===----------------------------------------------------------------------===//

struct SuiteSize {
  const char *Name;
  long Size;
};

// fig9: the paper's eight LEAN-suite programs. Sizes start from each
// program's BenchSize, rebalanced so that every program's VM run takes
// 25-60 ms and none dominates run_s.
const SuiteSize Fig9Sizes[] = {
    {"binarytrees", 12},         {"binarytrees-int", 12},
    {"const_fold", 13},          {"deriv", 30},
    {"filter", 50000},           {"qsort", 20000},
    {"rbmap_checkpoint", 12000}, {"unionfind", 4000},
};

// higher_order: closure-heavy programs where closure-opt, pap allocation
// and generic apply carry the work.
const SuiteSize HigherOrderSizes[] = {
    {"cps_pipeline", 60000},
    {"church_arith", 20000},
    {"compose_chains", 200000},
};

// compile: a seeded draw of small generated programs plus a fixed set of
// large ones. Compile cost per large program is heavy-tailed (measured
// coefficient of variation 0.5-0.7; one program in 48 needs 23 MB more
// than the rest), so a seeded draw of large programs moves compile_s and
// peak_rss_mb by up to a quarter from seed to seed. The large set is
// therefore fixed (the seed only orders it); the small programs, which
// weigh about a tenth of the compile time, change with the seed.
constexpr unsigned NumSmall = 40, NumLarge = 40;
// Generated programs terminate by construction; the cap turns a
// nonterminating miscompile into a failed operation instead of a hang.
constexpr uint64_t GeneratedFuel = 50'000'000;

struct Input {
  std::string Name;
  /// "suite", "small" or "large": what the compile workload groups by.
  std::string Class;
  std::string Source;
  std::string Expected;       ///< display string of main's result
  std::string ExpectedOutput; ///< println output
  uint64_t Fuel = 0;          ///< VM fuel cap, 0 = none
};

struct SetupResult {
  std::vector<Input> Inputs;
  /// Self-check failures: a reference that disagrees with the oracle.
  std::vector<std::string> Problems;
  double OracleSeconds = 0;
};

struct OracleRun {
  bool OK = false;
  std::string Result, Output, Error;
};

OracleRun runOracle(const std::string &Source, double &Seconds) {
  OracleRun O;
  lambda::Program P;
  if (!driver::parseSource(Source, P, O.Error))
    return O;
  auto T0 = Clock::now();
  driver::RunResult R = driver::runOracle(P);
  Seconds += since(T0);
  O.OK = R.OK;
  O.Result = R.ResultDisplay;
  O.Output = R.Output;
  O.Error = R.Error;
  return O;
}

/// A suite program at \p Size, with the reference as its expected result,
/// after checking the reference against the oracle at the test size.
Input suiteInput(const std::string &Name, long Size, SetupResult &S) {
  const programs::BenchProgram &B = programs::getBenchmark(Name);
  std::optional<std::string> AtTest =
      lzbench::referenceResult(Name, B.TestSize);
  OracleRun O =
      runOracle(programs::instantiate(B, B.TestSize), S.OracleSeconds);
  if (!AtTest || !O.OK || O.Result != *AtTest || !O.Output.empty())
    S.Problems.push_back("reference for " + Name + " at size " +
                         std::to_string(B.TestSize) + " is " +
                         AtTest.value_or("<none>") + ", oracle says " +
                         (O.OK ? O.Result : "error: " + O.Error));
  Input In;
  In.Name = Name;
  In.Class = "suite";
  In.Source = programs::instantiate(B, Size);
  In.Expected = lzbench::referenceResult(Name, Size).value_or("<none>");
  return In;
}

SetupResult setupWorkload(const std::string &Workload, uint64_t Seed,
                          bool Tiny) {
  SetupResult S;
  auto AddSuite = [&](std::span<const SuiteSize> Table) {
    for (const SuiteSize &P : Table) {
      long Size = Tiny ? programs::getBenchmark(P.Name).TestSize : P.Size;
      S.Inputs.push_back(suiteInput(P.Name, Size, S));
    }
  };
  if (Workload == "fig9") {
    AddSuite(Fig9Sizes);
  } else if (Workload == "higher_order") {
    AddSuite(HigherOrderSizes);
  } else if (Workload == "compile") {
    std::mt19937_64 Rng(Seed);
    unsigned Small = Tiny ? 2 : NumSmall, Large = Tiny ? 1 : NumLarge;
    for (unsigned K = 0; K != Small + Large; ++K) {
      bool IsLarge = K >= Small;
      unsigned I = IsLarge ? K - Small : K;
      programs::GeneratorOptions Opts;
      if (IsLarge) {
        // Tens of functions with deeper bodies: the ~3-16 KB programs on
        // which the rgn -> cf lowering and cf-opt weigh most.
        Opts.MinFunctions = Opts.MaxFunctions = 20 + 5 * (I % 4);
        Opts.BodyDepth = 4 + I % 2;
        Opts.MainDepth = 5;
      }
      unsigned GenSeed = IsLarge ? 1000003u * (I + 1)
                                 : static_cast<unsigned>(Rng());
      Input In;
      In.Name = (IsLarge ? "large." : "small.") + std::to_string(GenSeed);
      In.Class = IsLarge ? "large" : "small";
      In.Source = programs::ProgramGenerator(GenSeed, Opts).generate();
      In.Fuel = GeneratedFuel;
      OracleRun O = runOracle(In.Source, S.OracleSeconds);
      if (!O.OK)
        S.Problems.push_back("oracle failed on generated " + In.Name + ": " +
                             O.Error);
      In.Expected = O.Result;
      In.ExpectedOutput = O.Output;
      S.Inputs.push_back(std::move(In));
    }
    // The suite sources at their test sizes ride along.
    for (const auto *Suite :
         {&programs::getBenchmarkSuite(), &programs::getHigherOrderSuite()})
      for (const programs::BenchProgram &B : *Suite) {
        Input In = suiteInput(B.Name, B.TestSize, S);
        In.Fuel = GeneratedFuel;
        S.Inputs.push_back(std::move(In));
      }
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Rounds: one compile and one run per program and variant
//===----------------------------------------------------------------------===//

enum Variant { Full = 0, Leanc = 1 };
const char *variantName(int V) { return V == Full ? "full" : "leanc"; }

// The per-layer metrics of the traced run (README.md maps each to the
// end-to-end metric it moves). Compile-layer metrics sum both variants'
// compiles; runtime-layer metrics are those of "full".
const char *const LayerTimeNames[] = {
    "lambda.parse_s",         "lambda.simplify_s",
    "lambda.oracle_s",        "rc.insert_s",
    "lower.lambda_to_lp_s",   "lower.lp_to_rgn_s",
    "lower.rgn_to_cf_s",      "lower.direct_s",
    "transform.closure_opt_s", "rewrite.rgn_opt_s",
    "rewrite.canonicalize_s", "rewrite.cse_s",
    "rewrite.cf_opt_s",       "rewrite.sccp_s",
    "analysis.s",             "analysis.dominance_s",
    "ir.verify_s",            "vm.emit_s",
    "vm.run_s",
};
const char *const LayerCountNames[] = {
    "lower.ir_ops",
    "rewrite.patterns_applied",
    "analysis.cache_hits",
    "vm.bytecode_instructions",
    "vm.fused_ops",
    "vm.op_control",
    "vm.op_call",
    "vm.op_builtin",
    "vm.op_rc",
    "vm.op_alloc",
    "vm.op_data",
    "rt.allocs",
    "rt.incs",
    "rt.decs",
    "rt.elided_allocs",
    "vm.generic_applies",
    "vm.closure_allocs",
    "transform.closures_devirtualized",
    "transform.calls_uncurried",
};

/// What one compile + run of one program under one variant measured.
struct Sample {
  double CompileS = 0, RunS = 0, ParseS = 0;
  /// Traced only: time in the lower-rgn-to-cf span.
  double RgnToCfS = 0;
  uint64_t Steps = 0, Allocs = 0, Bytecode = 0;
};

/// Everything one round measured. Counts must repeat exactly from round
/// to round, and between traced and untraced rounds where both exist.
struct Round {
  /// Indexed [variant][input].
  std::vector<Sample> Samples[2];
  /// Traced only: per-layer times and counts, and the executed-opcode
  /// class histogram per variant.
  std::map<std::string, double> LayerTimes;
  std::map<std::string, uint64_t> LayerCounts;
  std::map<std::string, uint64_t> OpClasses[2];
  uint64_t Attempted = 0, Failed = 0;
  bool Wrong = false;

  template <typename T> T total(int V, T Sample::*F) const {
    T Sum = 0;
    for (const Sample &S : Samples[V])
      Sum += S.*F;
    return Sum;
  }
};

/// Superinstruction forms: the set obs::MetricsRegistry counts executions
/// of as vm.fused-op-hits, counted here in the emitted bytecode.
bool isFusedOpcode(vm::Opcode Op) {
  using vm::Opcode;
  switch (Op) {
  case Opcode::IncN:
  case Opcode::DecN:
  case Opcode::PapApply:
  case Opcode::RetConst:
  case Opcode::CmpBr:
  case Opcode::DecCmpBr:
  case Opcode::IntAdd:
  case Opcode::IntSub:
  case Opcode::IntMul:
  case Opcode::IntDiv:
  case Opcode::IntMod:
    return true;
  default:
    return false;
  }
}

/// The per-layer class an executed opcode is counted under.
const char *opcodeClass(vm::Opcode Op) {
  using vm::Opcode;
  switch (Op) {
  case Opcode::Ret:
  case Opcode::RetConst:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::CmpBr:
  case Opcode::SwitchBr:
  case Opcode::DecCmpBr:
  case Opcode::Trap:
    return "vm.op_control";
  case Opcode::Call:
  case Opcode::TailCall:
  case Opcode::Apply:
  case Opcode::PapApply:
    return "vm.op_call";
  case Opcode::CallBuiltin:
  case Opcode::NatAdd:
  case Opcode::NatSub:
  case Opcode::NatMul:
  case Opcode::NatDiv:
  case Opcode::NatMod:
  case Opcode::DecEq:
  case Opcode::DecLt:
  case Opcode::DecLe:
  case Opcode::IntAdd:
  case Opcode::IntSub:
  case Opcode::IntMul:
  case Opcode::IntDiv:
  case Opcode::IntMod:
    return "vm.op_builtin";
  case Opcode::Inc:
  case Opcode::Dec:
  case Opcode::IncN:
  case Opcode::DecN:
    return "vm.op_rc";
  case Opcode::Construct:
  case Opcode::Pap:
  case Opcode::BigConst:
    return "vm.op_alloc";
  default:
    return "vm.op_data";
  }
}

/// Folds the spans one compile emitted into the per-layer phase times.
void addSpanTimes(const obs::TraceSink &Sink,
                  std::map<std::string, double> &Times, double &RgnToCf) {
  static const std::map<std::string, std::string, std::less<>> Pipeline = {
      {"simplify", "lambda.simplify_s"},
      {"rc-insert", "rc.insert_s"},
      {"lower-lambda-to-lp", "lower.lambda_to_lp_s"},
      {"lower-lp-to-rgn", "lower.lp_to_rgn_s"},
      {"lower-rgn-to-cf", "lower.rgn_to_cf_s"},
      {"lower-direct", "lower.direct_s"},
      {"closure-opt", "transform.closure_opt_s"},
      {"rgn-opt", "rewrite.rgn_opt_s"},
      {"cf-opt", "rewrite.cf_opt_s"},
      {"vm-emit", "vm.emit_s"},
  };
  static const std::map<std::string, std::string, std::less<>> Passes = {
      {"canonicalize", "rewrite.canonicalize_s"},
      {"cse", "rewrite.cse_s"},
      {"sccp", "rewrite.sccp_s"},
  };
  for (const obs::TraceSink::Event &E : Sink.getEvents()) {
    double S = static_cast<double>(E.DurMicros) * 1e-6;
    if (E.Category == "analysis") {
      Times["analysis.s"] += S;
      if (E.Name == "dominance")
        Times["analysis.dominance_s"] += S;
    } else if (E.Name == "(verify)") {
      Times["ir.verify_s"] += S;
    } else if (E.Category == "pass" || E.Category == "pipeline") {
      const auto &Table = E.Category == "pass" ? Passes : Pipeline;
      auto It = Table.find(E.Name);
      if (It != Table.end())
        Times[It->second] += S;
      if (E.Name == "lower-rgn-to-cf")
        RgnToCf += S;
    }
  }
}

class RoundRunner {
public:
  explicit RoundRunner(const std::vector<Input> &Inputs) : Inputs(Inputs) {}

  /// Compiles and runs every input under both variants, in \p Order, with
  /// the variant that goes first alternating by \p FullFirst.
  Round run(const std::vector<size_t> &Order, bool FullFirst, bool Traced);

private:
  void runOne(const Input &In, int V, bool Traced, Round &R, Sample &S);
  void fail(Round &R, const Input &In, int V, const std::string &Why,
            bool WrongResult = false);

  const std::vector<Input> &Inputs;
  unsigned Reported = 0;
};

void RoundRunner::fail(Round &R, const Input &In, int V,
                       const std::string &Why, bool WrongResult) {
  ++R.Failed;
  R.Wrong |= WrongResult;
  if (Reported++ < 10)
    std::fprintf(stderr, "lzbench: %s [%s] failed: %s\n", In.Name.c_str(),
                 variantName(V), Why.c_str());
}

void RoundRunner::runOne(const Input &In, int V, bool Traced, Round &R,
                         Sample &S) {
  lower::PipelineOptions Opts = lower::PipelineOptions::forVariant(
      V == Full ? lower::PipelineVariant::Full : lower::PipelineVariant::Leanc);
  obs::TraceSink Sink;
  obs::MetricsRegistry Metrics;
  if (Traced) {
    Opts.Instrument.Trace = &Sink;
    Opts.Instrument.Metrics = &Metrics;
  }

  // Compile: source text -> runnable bytecode, parse and Context set-up
  // included; the module and context are torn down outside the timing.
  ++R.Attempted;
  vm::Program Prog;
  unsigned IrOps = 0;
  {
    auto T0 = Clock::now();
    lambda::Program P;
    std::string Error;
    bool Parsed = succeeded(lambda::parseMiniLean(In.Source, P, Error));
    S.ParseS = since(T0);
    Context Ctx;
    registerAllDialects(Ctx);
    lower::CompileResult CR;
    if (Parsed)
      CR = lower::compileProgram(P, Ctx, Opts);
    S.CompileS = since(T0);
    if (!Parsed || !CR.OK) {
      fail(R, In, V, Parsed ? "compile: " + CR.Error : "parse: " + Error);
      // The run that cannot happen fails too.
      ++R.Attempted;
      ++R.Failed;
      return;
    }
    IrOps = CR.NumOps;
    Prog = std::move(CR.Prog);
  }
  uint64_t FusedOps = 0;
  for (const vm::CompiledFunction &F : Prog.Functions) {
    S.Bytecode += F.Code.size();
    for (const vm::Instr &I : F.Code)
      FusedOps += isFusedOpcode(I.Op);
  }

  // Run: one VM execution of main.
  ++R.Attempted;
  rt::Runtime RT;
  std::string Output;
  StringOStream Out(Output);
  vm::VM Machine(Prog, RT, &Out);
  if (In.Fuel)
    Machine.setFuel(In.Fuel);
  if (Traced) {
    Machine.enableProfiling();
    Machine.enableHeapProfiling();
  }
  rt::ObjRef Result = rt::boxScalar(0);
  auto T0 = Clock::now();
  try {
    Result = Machine.run("main", {});
  } catch (const vm::TrapError &T) {
    fail(R, In, V, "trap: " + T.Message);
    return;
  }
  S.RunS = since(T0);
  S.Steps = Machine.getSteps();
  if (Machine.fuelExhausted()) {
    fail(R, In, V, "fuel exhausted after " + std::to_string(S.Steps));
    return;
  }
  std::string Display = RT.toDisplayString(Result);
  RT.dec(Result);
  S.Allocs = RT.getTotalAllocations();
  if (Display != In.Expected || Output != In.ExpectedOutput)
    fail(R, In, V, "result " + Display + ", expected " + In.Expected, true);
  else if (RT.getLiveObjects() != 0)
    fail(R, In, V,
         "leaked " + std::to_string(RT.getLiveObjects()) + " objects");

  if (!Traced)
    return;
  addSpanTimes(Sink, R.LayerTimes, S.RgnToCfS);
  R.LayerTimes["lambda.parse_s"] += S.ParseS;
  auto &C = R.LayerCounts;
  C["lower.ir_ops"] += IrOps;
  C["vm.bytecode_instructions"] += S.Bytecode;
  C["vm.fused_ops"] += FusedOps;
  C["rewrite.patterns_applied"] +=
      Metrics.get("pass.canonicalize.patterns-applied");
  C["transform.closures_devirtualized"] +=
      Metrics.get("pass.devirt.closures-devirtualized");
  C["transform.calls_uncurried"] +=
      Metrics.get("pass.arity-raise.calls-uncurried");
  for (const auto &[Name, Value] : Metrics.entries())
    if (Name.starts_with("analysis.") && Name.ends_with("-cache-hits"))
      C["analysis.cache_hits"] += Value;

  std::span<const uint64_t> Profile = Machine.getProfile();
  for (size_t Op = 0; Op != Profile.size(); ++Op)
    R.OpClasses[V][opcodeClass(static_cast<vm::Opcode>(Op))] += Profile[Op];
  if (V != Full)
    return;
  R.LayerTimes["vm.run_s"] += S.RunS;
  C["vm.generic_applies"] += Machine.getGenericApplies();
  C["vm.closure_allocs"] += Machine.getClosureAllocs();
  C["rt.allocs"] += S.Allocs;
  for (const rt::SiteStats &Site : RT.getSiteStats()) {
    C["rt.incs"] += Site.Incs;
    C["rt.decs"] += Site.Decs;
    C["rt.elided_allocs"] += Site.ElidedAllocs;
  }
}

Round RoundRunner::run(const std::vector<size_t> &Order, bool FullFirst,
                       bool Traced) {
  Round R;
  for (auto &S : R.Samples)
    S.resize(Inputs.size());
  for (size_t I : Order)
    for (int V : {FullFirst ? Full : Leanc, FullFirst ? Leanc : Full})
      runOne(Inputs[I], V, Traced, R, R.Samples[V][I]);
  if (Traced)
    for (const auto &[Class, Count] : R.OpClasses[Full])
      R.LayerCounts[Class] = Count;
  return R;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

std::string cpuMHz() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.starts_with("cpu MHz")) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Colon + 2);
    }
  return "unknown";
}

double peakRssMB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// The counts a round produced, for the determinism guards.
std::map<std::string, uint64_t> roundCounts(const Round &R) {
  std::map<std::string, uint64_t> C = R.LayerCounts;
  C["vm_instructions"] = R.total(Full, &Sample::Steps);
  C["vm_instructions_leanc"] = R.total(Leanc, &Sample::Steps);
  C["heap_allocs"] = R.total(Full, &Sample::Allocs);
  C["bytecode"] =
      R.total(Full, &Sample::Bytecode) + R.total(Leanc, &Sample::Bytecode);
  C["attempted"] = R.Attempted;
  C["failed"] = R.Failed;
  return C;
}

/// Median over \p Rounds of the per-round sum of \p F over the inputs
/// that \p Pick selects, under variant \p V.
template <typename PickFn>
double medianOver(const std::vector<Round> &Rounds, int V,
                  double Sample::*F, PickFn Pick) {
  std::vector<double> Vals;
  for (const Round &R : Rounds) {
    double Sum = 0;
    for (size_t I = 0; I != R.Samples[V].size(); ++I)
      if (Pick(I))
        Sum += R.Samples[V][I].*F;
    Vals.push_back(Sum);
  }
  return median(Vals);
}

double medianOver(const std::vector<Round> &Rounds, int V,
                  double Sample::*F) {
  return medianOver(Rounds, V, F, [](size_t) { return true; });
}

/// Per-program table: median run times and exact counts per variant, with
/// the Fig. 9 speedup (leanc time / full time) and its geomean. A report,
/// not a metric: a faster leanc would read as a regression.
void printProgramTable(const std::vector<Input> &Inputs,
                       const std::vector<Round> &Rounds) {
  std::printf("# %-18s %9s %9s %7s %11s %11s %7s %9s %9s\n", "program",
              "full_ms", "leanc_ms", "speedup", "instr_full", "instr_leanc",
              "i_ratio", "allocs_f", "allocs_l");
  double LogT = 0, LogI = 0;
  for (size_t I = 0; I != Inputs.size(); ++I) {
    auto One = [I](size_t J) { return J == I; };
    double MF = medianOver(Rounds, Full, &Sample::RunS, One);
    double ML = medianOver(Rounds, Leanc, &Sample::RunS, One);
    const Sample &F = Rounds.back().Samples[Full][I];
    const Sample &L = Rounds.back().Samples[Leanc][I];
    double SpT = ML / MF;
    double SpI = static_cast<double>(L.Steps) / static_cast<double>(F.Steps);
    LogT += std::log(SpT);
    LogI += std::log(SpI);
    std::printf("# %-18s %9.3f %9.3f %7.3f %11llu %11llu %7.3f %9llu %9llu\n",
                Inputs[I].Name.c_str(), MF * 1e3, ML * 1e3, SpT,
                static_cast<unsigned long long>(F.Steps),
                static_cast<unsigned long long>(L.Steps), SpI,
                static_cast<unsigned long long>(F.Allocs),
                static_cast<unsigned long long>(L.Allocs));
  }
  double N = static_cast<double>(Inputs.size());
  std::printf("# geomean speedup leanc/full: time %.3f, instructions %.3f "
              "(%zu programs, %zu rounds)\n",
              std::exp(LogT / N), std::exp(LogI / N), Inputs.size(),
              Rounds.size());
}

/// Compile time per input class (compile workload): where program size
/// shifts work between phases. With traced rounds, also the share of the
/// full compile spent in lower-rgn-to-cf.
void printClassTable(const std::vector<Input> &Inputs,
                     const std::vector<Round> &Untraced,
                     const std::vector<Round> &Traced) {
  for (const char *Class : {"small", "large", "suite"}) {
    auto In = [&](size_t I) { return Inputs[I].Class == Class; };
    size_t N = 0, Bytes = 0;
    for (size_t I = 0; I != Inputs.size(); ++I)
      if (In(I)) {
        ++N;
        Bytes += Inputs[I].Source.size();
      }
    double F = medianOver(Untraced, Full, &Sample::CompileS, In);
    double L = medianOver(Untraced, Leanc, &Sample::CompileS, In);
    std::printf("# %-5s %3zu programs, %7zu bytes: compile full %.4f s, "
                "leanc %.4f s (full/leanc %.2f)",
                Class, N, Bytes, F, L, F / L);
    if (!Traced.empty()) {
      double TF = medianOver(Traced, Full, &Sample::CompileS, In);
      double RC = medianOver(Traced, Full, &Sample::RgnToCfS, In);
      std::printf(", lower-rgn-to-cf %.1f%% of full", 100 * RC / TF);
    }
    std::printf("\n");
  }
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printJSON(bool Correct, uint64_t Attempted, uint64_t Failed,
               const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit);
  std::printf("}}\n");
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  bool CheckReferences = false;
  std::string SourceId = "unknown";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--tiny" || Flag == "--check-references") {
      (Flag == "--tiny" ? A.Tiny : A.CheckReferences) = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      A.Trace = Value == "1";
    else if (Flag == "--source-id")
      A.SourceId = Value;
    else
      return false;
  }
  return A.CheckReferences || A.Workload == "fig9" ||
         A.Workload == "higher_order" || A.Workload == "compile";
}

/// Checks every reference against the oracle at the size the fig9 and
/// higher_order workloads run it, where setup checks only the test size.
/// Slow (the oracle is a tree-walking interpreter), so not part of a run.
bool checkReferencesAtBenchSizes() {
  bool OK = true;
  const std::span<const SuiteSize> Tables[] = {Fig9Sizes, HigherOrderSizes};
  for (std::span<const SuiteSize> Table : Tables)
    for (const SuiteSize &P : Table) {
      double Seconds = 0;
      OracleRun O = runOracle(
          programs::instantiate(programs::getBenchmark(P.Name), P.Size),
          Seconds);
      std::string Ref =
          lzbench::referenceResult(P.Name, P.Size).value_or("<none>");
      bool Same = O.OK && O.Result == Ref;
      OK &= Same;
      std::printf("reference %s at size %ld: %s (reference %s, oracle %s, "
                  "%.1f s)\n",
                  P.Name, P.Size, Same ? "ok" : "MISMATCH", Ref.c_str(),
                  O.OK ? O.Result.c_str() : O.Error.c_str(), Seconds);
      std::fflush(stdout);
    }
  return OK;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: lzbench_runner --workload fig9|higher_order|compile "
                 "--seed N --seconds S --trace 0|1 [--tiny] "
                 "[--source-id ID]\n"
                 "       lzbench_runner --check-references\n");
    return 2;
  }
  if (A.CheckReferences)
    return checkReferencesAtBenchSizes() ? 0 : 1;
  std::printf("# provenance: %s, compiler %s, build %s, vm dispatch %s, "
              "nproc %u, cpu MHz %s\n",
              A.SourceId.c_str(), LZB_COMPILER, LZB_BUILD_TYPE,
              vm::VM::dispatchModeName(vm::VM::defaultDispatchMode()),
              std::thread::hardware_concurrency(), cpuMHz().c_str());

  // Set-up: generate the inputs, compute their expected results and check
  // the references against the oracle. Repeated for about a second (at
  // least three times) so that its median, setup_s, is steady.
  std::vector<double> SetupTimes, OracleTimes;
  SetupResult Setup;
  for (auto T0 = Clock::now(); SetupTimes.size() < 3 || since(T0) < 1.0;) {
    auto T1 = Clock::now();
    Setup = setupWorkload(A.Workload, A.Seed, A.Tiny);
    SetupTimes.push_back(since(T1));
    OracleTimes.push_back(Setup.OracleSeconds);
  }
  bool Correct = Setup.Problems.empty();
  for (const std::string &P : Setup.Problems)
    std::fprintf(stderr, "lzbench: self-check: %s\n", P.c_str());
  const std::vector<Input> &Inputs = Setup.Inputs;
  size_t Bytes = 0;
  for (const Input &In : Inputs)
    Bytes += In.Source.size();
  std::printf("# workload %s, seed %llu, %g s, trace %d%s: %zu programs, "
              "%zu source bytes\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0, A.Tiny ? ", test sizes" : "",
              Inputs.size(), Bytes);

  // Whole rounds until the time is up. The first round warms caches and
  // is not measured; with tracing, measured rounds alternate untraced /
  // traced. Each round runs the programs in a seeded shuffle, and the
  // variant that goes first alternates.
  RoundRunner Runner(Inputs);
  std::mt19937_64 OrderRng(A.Seed);
  std::vector<size_t> Order(Inputs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::vector<Round> Untraced, Traced;
  uint64_t Attempted = 0, Failed = 0;
  auto Start = Clock::now();
  for (unsigned K = 0;; ++K) {
    std::shuffle(Order.begin(), Order.end(), OrderRng);
    bool TraceThis = A.Trace && K != 0 && K % 2 == 0;
    Round R = Runner.run(Order, K % 2 == 0, TraceThis);
    Attempted += R.Attempted;
    Failed += R.Failed;
    Correct &= !R.Wrong;
    if (K != 0)
      (TraceThis ? Traced : Untraced).push_back(std::move(R));
    bool Enough = !Untraced.empty() && (!A.Trace || !Traced.empty());
    if (Enough && since(Start) >= A.Seconds)
      break;
  }
  std::printf("# %zu untraced and %zu traced rounds in %.2f s\n",
              Untraced.size(), Traced.size(), since(Start));

  // Determinism guards: every count repeats exactly across rounds, and the
  // traced rounds retire and emit exactly what the untraced ones do.
  auto SameCounts = [&](const std::vector<Round> &Rs, const char *What) {
    for (const Round &R : Rs)
      if (roundCounts(R) != roundCounts(Rs.front())) {
        std::fprintf(stderr, "lzbench: counts differ between %s rounds\n",
                     What);
        Correct = false;
        return;
      }
  };
  SameCounts(Untraced, "untraced");
  SameCounts(Traced, "traced");
  if (!Traced.empty()) {
    std::map<std::string, uint64_t> U = roundCounts(Untraced.front());
    std::map<std::string, uint64_t> T = roundCounts(Traced.front());
    for (const char *Key : {"vm_instructions", "vm_instructions_leanc",
                            "heap_allocs", "bytecode"})
      if (U[Key] != T[Key]) {
        std::fprintf(stderr,
                     "lzbench: traced rounds changed %s (%llu vs %llu); the "
                     "per-layer numbers are void\n",
                     Key, static_cast<unsigned long long>(T[Key]),
                     static_cast<unsigned long long>(U[Key]));
        Correct = false;
      }
  }

  if (A.Workload == "compile")
    printClassTable(Inputs, Untraced, Traced);
  else
    printProgramTable(Inputs, Untraced);

  std::vector<Metric> Metrics;
  if (!A.Trace) {
    const Round &Last = Untraced.back();
    auto Count = [](uint64_t V) { return static_cast<double>(V); };
    Metrics = {
        {"setup_s", median(SetupTimes), "s"},
        {"compile_s", medianOver(Untraced, Full, &Sample::CompileS), "s"},
        {"compile_s_leanc", medianOver(Untraced, Leanc, &Sample::CompileS),
         "s"},
        {"run_s", medianOver(Untraced, Full, &Sample::RunS), "s"},
        {"run_s_leanc", medianOver(Untraced, Leanc, &Sample::RunS), "s"},
        {"vm_instructions", Count(Last.total(Full, &Sample::Steps)), "count"},
        {"vm_instructions_leanc", Count(Last.total(Leanc, &Sample::Steps)),
         "count"},
        {"heap_allocs", Count(Last.total(Full, &Sample::Allocs)), "count"},
        {"peak_rss_mb", peakRssMB(), "MB"},
    };
  } else {
    auto RoundTime = [](const std::vector<Round> &Rs) {
      double T = 0;
      for (int V : {Full, Leanc})
        T += medianOver(Rs, V, &Sample::CompileS) +
             medianOver(Rs, V, &Sample::RunS);
      return T;
    };
    double TT = RoundTime(Traced), UT = RoundTime(Untraced);
    std::printf("# tracing overhead: %+.4f s per round (traced %.4f s, "
                "untraced %.4f s)\n",
                TT - UT, TT, UT);
    for (int V : {Full, Leanc}) {
      std::printf("# executed opcode classes (%s):", variantName(V));
      for (const auto &[Class, N] : Traced.back().OpClasses[V])
        std::printf(" %s=%llu", Class.c_str(),
                    static_cast<unsigned long long>(N));
      std::printf("\n");
    }
    for (const char *Name : LayerTimeNames) {
      std::vector<double> Vals;
      if (std::string_view(Name) == "lambda.oracle_s")
        Vals = OracleTimes;
      else
        for (const Round &R : Traced) {
          auto It = R.LayerTimes.find(Name);
          Vals.push_back(It == R.LayerTimes.end() ? 0 : It->second);
        }
      Metrics.push_back({Name, median(Vals), "s"});
    }
    const std::map<std::string, uint64_t> &C = Traced.back().LayerCounts;
    for (const char *Name : LayerCountNames) {
      auto It = C.find(Name);
      Metrics.push_back(
          {Name, It == C.end() ? 0.0 : static_cast<double>(It->second),
           "count"});
    }
  }
  std::fflush(stderr);
  printJSON(Correct, Attempted, Failed, Metrics);
  return 0;
}

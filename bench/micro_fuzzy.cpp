// Microbenchmarks (google-benchmark) of the fuzzy machinery: rule
// parsing, fuzzification, full inference over the default controller
// rule bases (interpreted vs compiled pairs), and defuzzification.
// The controller runs inference for every service instance on every
// trigger, so these paths are the hot loop of AutoGlobe. Results land
// in BENCH_fuzzy.json; the compiled steady-state benchmarks also
// report allocs_per_call via a global operator-new counter, pinning
// the allocation-free contract.

#include <benchmark/benchmark.h>

#include <atomic>

#include "alloc_counter.h"
#include "benchmark_json.h"
#include "common/logging.h"
#include "controller/rule_bases.h"
#include "fuzzy/compiled.h"
#include "fuzzy/inference.h"
#include "fuzzy/rule_parser.h"

namespace {

using namespace autoglobe;
using fuzzy::AggregatedSet;
using fuzzy::CompiledRuleBase;
using fuzzy::Defuzzifier;
using fuzzy::InferenceEngine;
using fuzzy::Inputs;
using fuzzy::LinguisticVariable;
using fuzzy::MembershipFunction;
using fuzzy::RuleBase;

Inputs OverloadInputs() {
  return Inputs{{"cpuLoad", 0.85},          {"memLoad", 0.4},
                {"performanceIndex", 2.0},  {"instanceLoad", 0.9},
                {"serviceLoad", 0.8},       {"instancesOnServer", 2.0},
                {"instancesOfService", 3.0}};
}

Inputs ServerSelectionInputs() {
  return Inputs{{"cpuLoad", 0.2},      {"memLoad", 0.4},
                {"instancesOnServer", 1.0},
                {"performanceIndex", 9.0},
                {"numberOfCpus", 4.0}, {"cpuClock", 2.8},
                {"cpuCache", 2.0},     {"memory", 12.0},
                {"swapSpace", 24.0},   {"tempSpace", 40.0}};
}

constexpr const char* kSampleRule =
    "IF cpuLoad IS high AND (performanceIndex IS low OR "
    "performanceIndex IS medium) THEN scaleUp IS applicable";

void BM_ParseRule(benchmark::State& state) {
  for (auto _ : state) {
    auto rule = fuzzy::ParseRule(kSampleRule);
    benchmark::DoNotOptimize(rule);
  }
}
BENCHMARK(BM_ParseRule);

void BM_Fuzzify(benchmark::State& state) {
  LinguisticVariable var = LinguisticVariable::StandardLoad("cpuLoad");
  double x = 0.0;
  for (auto _ : state) {
    x += 0.001;
    if (x > 1.0) x = 0.0;
    auto grades = var.Fuzzify(x);
    benchmark::DoNotOptimize(grades);
  }
}
BENCHMARK(BM_Fuzzify);

void BM_InferDefaultOverloadBase(benchmark::State& state) {
  auto rb = controller::MakeDefaultActionRuleBase(
      monitor::TriggerKind::kServiceOverloaded);
  AG_CHECK_OK(rb.status());
  InferenceEngine engine;
  Inputs inputs = OverloadInputs();
  for (auto _ : state) {
    auto outputs = engine.Infer(*rb, inputs);
    benchmark::DoNotOptimize(outputs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rb->size()));
}
BENCHMARK(BM_InferDefaultOverloadBase);

// Compiled twin of BM_InferDefaultOverloadBase, including the
// name-keyed Gather so the comparison covers the same entry point the
// controller replaced (named measurements in, crisp values out).
void BM_CompiledInferDefaultOverloadBase(benchmark::State& state) {
  auto rb = controller::MakeDefaultActionRuleBase(
      monitor::TriggerKind::kServiceOverloaded);
  AG_CHECK_OK(rb.status());
  auto compiled = CompiledRuleBase::Compile(*rb);
  AG_CHECK_OK(compiled.status());
  Inputs inputs = OverloadInputs();
  CompiledRuleBase::Scratch scratch = compiled->MakeScratch();
  std::vector<double> slots(compiled->inputs().size());
  for (auto _ : state) {
    AG_CHECK_OK(compiled->inputs().Gather(inputs, slots.data()));
    compiled->Evaluate(slots.data(), Defuzzifier::kLeftmostMax, &scratch);
    benchmark::DoNotOptimize(scratch.crisp.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rb->size()));
}
BENCHMARK(BM_CompiledInferDefaultOverloadBase);

// The pure steady-state kernel the per-host scoring loop runs: slots
// are already gathered, only Evaluate() remains. allocs_per_call must
// report 0.
void BM_CompiledEvaluateSteadyState(benchmark::State& state) {
  Defuzzifier method = static_cast<Defuzzifier>(state.range(0));
  auto rb = controller::MakeDefaultActionRuleBase(
      monitor::TriggerKind::kServiceOverloaded);
  AG_CHECK_OK(rb.status());
  auto compiled = CompiledRuleBase::Compile(*rb);
  AG_CHECK_OK(compiled.status());
  CompiledRuleBase::Scratch scratch = compiled->MakeScratch();
  std::vector<double> slots(compiled->inputs().size());
  AG_CHECK_OK(compiled->inputs().Gather(OverloadInputs(), slots.data()));
  compiled->Evaluate(slots.data(), method, &scratch);  // warm the scratch
  uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    compiled->Evaluate(slots.data(), method, &scratch);
    benchmark::DoNotOptimize(scratch.crisp.data());
  }
  uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) -
                    allocs_before;
  state.counters["allocs_per_call"] = state.iterations() > 0
      ? static_cast<double>(allocs) / static_cast<double>(state.iterations())
      : 0.0;
  state.SetLabel(std::string(fuzzy::DefuzzifierName(method)));
}
BENCHMARK(BM_CompiledEvaluateSteadyState)->DenseRange(0, 2);

void BM_InferServerSelection(benchmark::State& state) {
  auto rb =
      controller::MakeDefaultServerRuleBase(infra::ActionType::kScaleOut);
  AG_CHECK_OK(rb.status());
  InferenceEngine engine;
  Inputs inputs = ServerSelectionInputs();
  for (auto _ : state) {
    auto score = engine.InferValue(*rb, inputs, "suitability");
    benchmark::DoNotOptimize(score);
  }
}
BENCHMARK(BM_InferServerSelection);

// Compiled twin of BM_InferServerSelection — the Figure-7 per-host
// scoring path.
void BM_CompiledInferServerSelection(benchmark::State& state) {
  auto rb =
      controller::MakeDefaultServerRuleBase(infra::ActionType::kScaleOut);
  AG_CHECK_OK(rb.status());
  auto compiled = CompiledRuleBase::Compile(*rb);
  AG_CHECK_OK(compiled.status());
  int slot = compiled->OutputSlot("suitability");
  AG_CHECK(slot >= 0);
  Inputs inputs = ServerSelectionInputs();
  CompiledRuleBase::Scratch scratch = compiled->MakeScratch();
  std::vector<double> slots(compiled->inputs().size());
  for (auto _ : state) {
    AG_CHECK_OK(compiled->inputs().Gather(inputs, slots.data()));
    compiled->Evaluate(slots.data(), Defuzzifier::kLeftmostMax, &scratch);
    benchmark::DoNotOptimize(scratch.crisp[static_cast<size_t>(slot)]);
  }
}
BENCHMARK(BM_CompiledInferServerSelection);

void BM_Defuzzify(benchmark::State& state) {
  Defuzzifier method = static_cast<Defuzzifier>(state.range(0));
  AggregatedSet set(0.0, 1.0);
  set.AddClipped(MembershipFunction::RampUp(0.0, 1.0).value(), 0.6);
  set.AddClipped(MembershipFunction::Triangle(0.2, 0.5, 0.8).value(), 0.4);
  for (auto _ : state) {
    double crisp = set.Defuzzify(method);
    benchmark::DoNotOptimize(crisp);
  }
  state.SetLabel(std::string(fuzzy::DefuzzifierName(method)));
}
BENCHMARK(BM_Defuzzify)->DenseRange(0, 2);

}  // namespace

int main(int argc, char** argv) {
  return autoglobe::bench::RunBenchmarksAndWriteJson(argc, argv,
                                                     "BENCH_fuzzy.json");
}

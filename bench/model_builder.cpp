//===- model_builder.cpp - Builds the machine-specific model (Table 3) ----===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// The performance-model builder tool (paper §4.1): runs the factorial
// plan of Table 3 on this machine, fits the cubic cost polynomials, and
// persists the model (loaded by the other harnesses, so every figure
// uses machine-true costs). The output path is `--out` when given, else
// the `CSWITCH_MODEL` environment variable, else `cswitch_model.txt` in
// the working directory; the harnesses search the same chain plus the
// checked-in `data/cswitch_model.txt` fallback.
//
// `--check` then gates the wall-clock shape of the fresh model, the
// properties the unit tests can only check on injected times: an
// ArrayList contains at size 512 costs more than 4x one at size 8, and an
// ArrayMap lookup at 512 more than 2x an OpenHashMap one. It exits 1 when
// either fails. Run it at full options: the quick plan's samples are too
// short to be trusted on a loaded machine.
//
// Usage: model_builder [--quick] [--out <path>] [--check]
//
//===----------------------------------------------------------------------===//

#include "model/ModelBuilder.h"
#include "model/ThresholdAnalyzer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace cswitch;

namespace {

double containsNanos(const PerformanceModel &Model, VariantId Variant,
                     double Size) {
  return Model.operationCost(Variant, OperationKind::Contains,
                             CostDimension::Time, Size);
}

/// One --check gate: \p Cost must exceed \p Factor times \p Base.
bool gate(const char *Name, double Cost, double Base, double Factor) {
  bool Pass = Cost > Base * Factor;
  std::printf("check %-44s %8.2f ns vs %.0fx %6.2f ns (%.1fx)  %s\n", Name,
              Cost, Factor, Base, Cost / Base, Pass ? "PASS" : "FAIL");
  return Pass;
}

bool checkShape(const PerformanceModel &Model) {
  VariantId ArrayList = VariantId::of(ListVariant::ArrayList);
  bool Scan = gate("ArrayList contains: size 512 vs size 8",
                   containsNanos(Model, ArrayList, 512),
                   containsNanos(Model, ArrayList, 8), 4);
  bool Hash = gate("contains at 512: ArrayMap vs OpenHashMap",
                   containsNanos(Model, VariantId::of(MapVariant::ArrayMap),
                                 512),
                   containsNanos(Model,
                                 VariantId::of(MapVariant::OpenHashMap), 512),
                   2);
  return Scan && Hash;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  bool Check = false;
  const char *EnvPath = std::getenv("CSWITCH_MODEL");
  std::string OutPath =
      EnvPath && EnvPath[0] ? EnvPath : "cswitch_model.txt";
  for (int I = 1; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(Argv[I], "--check") == 0)
      Check = true;
    else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 != Argc)
      OutPath = Argv[++I];
  }

  ModelBuildOptions Options =
      Quick ? ModelBuildOptions::quick() : ModelBuildOptions();
  if (!Quick) {
    Options.Sizes = ModelBuildOptions::paperSizes();
    Options.WarmupIterations = 2;
    Options.MeasuredIterations = 6;
  }

  std::printf("Table 3: Factors and levels of the factorial plan\n");
  std::printf("  Collection Size   [");
  for (size_t I = 0; I != Options.Sizes.size(); ++I)
    std::printf("%s%zu", I ? "," : "", Options.Sizes[I]);
  std::printf("]\n");
  std::printf("  Scenarios         populate, contains, iterate, index, "
              "middle, remove\n");
  std::printf("  Data Type         int64 (Integer)\n");
  std::printf("  Data Distribution uniform\n");
  std::printf("  Iterations        %zu warm-up + %zu measured per point\n\n",
              Options.WarmupIterations, Options.MeasuredIterations);

  ModelBuilder Builder(Options);
  Builder.setProgressCallback([](const std::string &Line) {
    std::printf("  fit %s\n", Line.c_str());
  });
  std::printf("benchmarking all variants (this is the slow part)...\n");
  PerformanceModel Model = Builder.build();

  if (!Model.saveToFile(OutPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("\nmodel written to %s\n", OutPath.c_str());

  ThresholdAnalyzer Analyzer(Model);
  AdaptiveThresholds T = Analyzer.computeAll();
  std::printf("derived adaptive thresholds on this machine: list=%zu "
              "set=%zu map=%zu (paper Table 1: 80/40/50)\n",
              T.List, T.Set, T.Map);
  return Check && !checkShape(Model) ? 1 : 0;
}

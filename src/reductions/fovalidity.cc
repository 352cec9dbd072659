#include "reductions/fovalidity.h"

#include "ctl/ctl_check.h"
#include "fo/evaluator.h"
#include "fo/parser.h"
#include "ltl/ltl_parser.h"
#include "ws/builder.h"

namespace wsv {

StatusOr<FoValidityReduction> BuildFoValidityReduction(
    const std::string& psi_text) {
  ServiceBuilder b("FoValidity");
  b.Database("Dom", 1);
  b.Database("Rel", 2);
  b.Input("X", 1);
  b.Input("Y", 1);
  b.State("donex", 0);
  b.State("truephi", 0);

  // The appendix's rule re-offers the recorded x through a state atom
  // with a variable (SX(x)); a Prev_I atom achieves the same re-offering
  // while staying within the strict input-bounded class.
  //
  // truephi reflects the previous step's pick: psi(x, y) when both x and
  // y were provided, vacuously true otherwise.
  std::string cond =
      "(exists x . X(x) & (exists y . Y(y) & (" + psi_text + "))) "
      "| !(exists x . X(x) & true) | !(exists y . Y(y) & true)";
  b.Page("P")
      .Options("X(x)", "(!donex & Dom(x)) | (donex & prev.X(x))")
      .Options("Y(y)", "donex & Dom(y)")
      .Insert("donex", "exists x . X(x) & true")
      .Insert("truephi", cond)
      .Delete("truephi", "!(" + cond + ")");
  b.Home("P").Error("ERR");
  WSV_ASSIGN_OR_RETURN(WebService service, b.Build());

  FoValidityReduction out;
  WSV_ASSIGN_OR_RETURN(
      out.property,
      ParseTemporalProperty("A X (A X (truephi))", &service.vocab()));
  out.service = std::move(service);
  return out;
}

StatusOr<bool> ExistsForallViaService(const FoValidityReduction& reduction,
                                      const Instance& database) {
  KripkeBuildOptions options;
  WSV_ASSIGN_OR_RETURN(
      Kripke kripke,
      BuildUnmergedKripke(reduction.service, database, options));
  WSV_ASSIGN_OR_RETURN(std::vector<char> label,
                       CtlLabel(kripke, *reduction.property.formula));
  // Engaged initial states: the user picked an x at step 0 (the bare
  // relation-name proposition X marks a non-empty input).
  int x_prop = kripke.FindProp("X");
  if (x_prop < 0) return false;  // X never picked: Dom is empty
  for (int s : kripke.InitialStates()) {
    if (kripke.label(s).count(x_prop) > 0 &&
        label[static_cast<size_t>(s)]) {
      return true;
    }
  }
  return false;
}

StatusOr<bool> ExistsForallDirect(const std::string& psi_text,
                                  const Instance& database) {
  Vocabulary vocab;
  WSV_RETURN_IF_ERROR(vocab.AddRelation("Dom", 1, SymbolKind::kDatabase));
  WSV_RETURN_IF_ERROR(vocab.AddRelation("Rel", 2, SymbolKind::kDatabase));
  WSV_ASSIGN_OR_RETURN(
      FormulaPtr f,
      ParseFormula("exists x . Dom(x) & (forall y . Dom(y) -> (" +
                       psi_text + "))",
                   &vocab));
  EvalContext ctx;
  ctx.AddLayer(&database);
  return OracleEvaluate(*f, ctx);
}

}  // namespace wsv

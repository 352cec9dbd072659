#include "verify/witness_check.h"

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ltl/run_semantics.h"
#include "obs/trace.h"
#include "runtime/successor.h"

namespace wsv {

namespace {

Status StepMismatch(size_t i, const std::string& what,
                    const std::string& expect, const std::string& got) {
  return Status::InvalidArgument(
      "witness step " + std::to_string(i) + ": " + what +
      " mismatch\n  recorded: " + expect + "\n  replayed: " + got);
}

std::string KappaToString(const Kappa& kappa) {
  std::string out = "{";
  for (const auto& [name, v] : kappa) {
    if (out.size() > 1) out += ", ";
    out += name + "=" + v.name();
  }
  return out + "}";
}

// Rebuilds the user's decision at `config` from the inputs the witness
// recorded for this step. The stepper then re-validates it: constants
// must match the page's requests, relation picks must be among the
// computed options.
StatusOr<UserChoice> ReconstructChoice(const Stepper& stepper,
                                       const Config& config,
                                       const TraceStep& step, size_t i) {
  UserChoice choice;
  const WebService& service = stepper.service();
  if (config.page == service.error_page() ||
      stepper.StaticError(config).has_value()) {
    return choice;  // the single successor ignores the choice
  }
  const PageSchema* page = service.FindPage(config.page);
  if (page == nullptr) {
    return Status::InvalidArgument("witness step " + std::to_string(i) +
                                   ": unknown page " + config.page);
  }
  for (const std::string& name : page->input_constants) {
    const Value* v = step.kappa.Find(name);
    if (v == nullptr) {
      return Status::InvalidArgument(
          "witness step " + std::to_string(i) + ": page " + page->name +
          " requests input constant " + name +
          " but the step's kappa does not provide it");
    }
    choice.constant_values[name] = *v;
  }
  for (const std::string& in : page->inputs) {
    const RelationSymbol* sym = service.vocab().FindRelation(in);
    if (sym == nullptr) continue;
    const Relation* rel = step.inputs.FindRelation(in);
    if (sym->arity == 0) {
      choice.proposition_choices[in] = rel != nullptr && rel->AsBool();
      continue;
    }
    if (rel == nullptr || rel->empty()) continue;  // no pick
    if (rel->size() > 1) {
      return Status::InvalidArgument(
          "witness step " + std::to_string(i) + ": input relation " + in +
          " records " + std::to_string(rel->size()) +
          " tuples; a user picks at most one");
    }
    choice.relation_choices[in] = Tuple(rel->row(0).begin(), rel->row(0).end());
  }
  return choice;
}

// The choices a user has at `config`, which is on one of the service's
// pages, with the input constants of `base`: per positive-arity input
// relation no pick or one of its options, per propositional input false
// or true.
StatusOr<std::vector<UserChoice>> ChoicesAt(const Stepper& stepper,
                                            const Config& config,
                                            const UserChoice& base) {
  const WebService& service = stepper.service();
  WSV_ASSIGN_OR_RETURN(auto options,
                       stepper.ComputeOptions(config, base.constant_values));
  std::vector<UserChoice> choices{base};
  for (const std::string& in : service.FindPage(config.page)->inputs) {
    const RelationSymbol* sym = service.vocab().FindRelation(in);
    if (sym == nullptr) continue;
    std::vector<UserChoice> extended;
    for (const UserChoice& choice : choices) {
      if (sym->arity == 0) {
        for (bool truth : {false, true}) {
          extended.push_back(choice);
          extended.back().proposition_choices[in] = truth;
        }
        continue;
      }
      extended.push_back(choice);
      extended.back().relation_choices.erase(in);
      for (const Tuple& pick : options[in]) {
        extended.push_back(choice);
        extended.back().relation_choices[in] = pick;
      }
    }
    choices = std::move(extended);
  }
  return choices;
}

// Replays `steps` from the initial configuration: each recorded step
// must (a) start at the configuration the replay reached and (b)
// reproduce its trace element exactly. `last_ok` says whether the last
// step's outcome is what the witness needs. `configs` gets the
// configuration each step starts at; returns the outcome of the last
// step, of which there is at least one.
StatusOr<StepOutcome> ReplaySteps(
    const Stepper& stepper, const std::vector<TraceStep>& steps,
    const std::function<bool(const StepOutcome&)>& last_ok,
    std::vector<Config>* configs) {
  configs->reserve(steps.size());
  auto reached = [&](size_t i, const StepOutcome& outcome) {
    return i + 1 < steps.size() ? outcome.next.page == steps[i + 1].page
                                : last_ok(outcome);
  };
  StepOutcome outcome;
  outcome.next = stepper.InitialConfig();
  for (size_t i = 0; i < steps.size(); ++i) {
    Config config = std::move(outcome.next);
    const TraceStep& step = steps[i];
    if (step.page != config.page) {
      return StepMismatch(i, "page", step.page, config.page);
    }
    if (!(step.state == config.state)) {
      return StepMismatch(i, "state", step.state.ToString(),
                          config.state.ToString());
    }
    if (!(step.prev_inputs == config.prev_inputs)) {
      return StepMismatch(i, "prev_inputs", step.prev_inputs.ToString(),
                          config.prev_inputs.ToString());
    }
    if (!(step.actions == config.actions)) {
      return StepMismatch(i, "actions", step.actions.ToString(),
                          config.actions.ToString());
    }
    WSV_ASSIGN_OR_RETURN(UserChoice choice,
                         ReconstructChoice(stepper, config, step, i));
    WSV_ASSIGN_OR_RETURN(outcome, stepper.Step(config, choice));
    // A step into the error page on an ambiguous pick (condition iii)
    // records no inputs (runtime/successor.h), so a replay that misses
    // what the witness has next retries the step with each pick and
    // keeps one that enters the error page as the witness needs.
    if (!reached(i, outcome) &&
        config.page != stepper.service().error_page() &&
        !stepper.StaticError(config).has_value()) {
      WSV_ASSIGN_OR_RETURN(std::vector<UserChoice> choices,
                           ChoicesAt(stepper, config, choice));
      for (const UserChoice& pick : choices) {
        WSV_ASSIGN_OR_RETURN(StepOutcome retried, stepper.Step(config, pick));
        if (retried.to_error && reached(i, retried)) {
          outcome = std::move(retried);
          break;
        }
      }
    }
    if (!(outcome.trace.inputs == step.inputs)) {
      return StepMismatch(i, "inputs", step.inputs.ToString(),
                          outcome.trace.inputs.ToString());
    }
    if (outcome.trace.kappa != step.kappa) {
      return StepMismatch(i, "kappa", KappaToString(step.kappa),
                          KappaToString(outcome.trace.kappa));
    }
    configs->push_back(std::move(config));
  }
  return outcome;
}

}  // namespace

Status ValidateWitness(const WebService& service,
                       const TemporalProperty& property,
                       const CounterExample& cex) {
  WSV_SPAN("verify/witness_check");
  const LassoRun& run = cex.run;
  if (run.steps.empty()) {
    return Status::InvalidArgument("witness run has no steps");
  }
  if (run.loop_start >= run.steps.size()) {
    return Status::InvalidArgument(
        "witness loop_start " + std::to_string(run.loop_start) +
        " out of range (run has " + std::to_string(run.steps.size()) +
        " steps)");
  }
  for (const std::string& var : property.universal_vars) {
    if (cex.valuation.find(var) == cex.valuation.end()) {
      return Status::InvalidArgument(
          "witness valuation does not bind closure variable " + var);
    }
  }

  Stepper stepper(&service, &cex.database);
  WSV_RETURN_IF_ERROR(stepper.status());
  stepper.SetTrackedPrev(TrackedPrevRelations(service, property));
  std::vector<Config> configs;
  // A lasso's last step never enters the error page: its successor is
  // a configuration the run had before.
  WSV_ASSIGN_OR_RETURN(
      StepOutcome last,
      ReplaySteps(stepper, run.steps,
                  [](const StepOutcome&) { return true; }, &configs));
  const Config& config = last.next;

  // Closure: the successor of the last step is where the lasso loops
  // back to, making the periodic extension a real run.
  if (!(config == configs[run.loop_start])) {
    return Status::InvalidArgument(
        "witness lasso does not close: the successor of the final step "
        "differs from the configuration at loop_start " +
        std::to_string(run.loop_start));
  }

  // Violation: under the witness valuation the property fails on this
  // run. (The verifier's faithfulness filter already checked the
  // valuation ranges over Dom(rho); semantic falsity subsumes what we
  // need here.) Re-checked with the plan-free oracle (fo/evaluator.h)
  // so the validation stays independent of the bytecode engine.
  WSV_ASSIGN_OR_RETURN(
      bool sat, EvaluateLtlOnLassoWithValuation(
                    *property.formula, run, cex.database, service,
                    cex.valuation, FoEngine::kOracle));
  if (sat) {
    return Status::InvalidArgument(
        "witness run satisfies the property under the witness valuation; "
        "not a violation");
  }
  WSV_COUNT1("verify/witnesses_validated");
  return Status::OK();
}

Status ValidateErrorWitness(const WebService& service,
                            const ErrorWitness& witness) {
  WSV_SPAN("verify/witness_check");
  if (witness.path.empty()) {
    return Status::InvalidArgument("error witness path has no steps");
  }
  Stepper stepper(&service, &witness.database);
  WSV_RETURN_IF_ERROR(stepper.status());
  stepper.SetTrackedPrev(Stepper::PrevRelationsInRules(service));
  std::vector<Config> configs;
  auto enters_error = [&](const StepOutcome& outcome) {
    return outcome.to_error && outcome.error_reason == witness.reason;
  };
  WSV_ASSIGN_OR_RETURN(
      StepOutcome last,
      ReplaySteps(stepper, witness.path, enters_error, &configs));
  if (!last.to_error) {
    return Status::InvalidArgument(
        "error witness: the final step does not enter the error page");
  }
  if (last.error_reason != witness.reason) {
    return Status::InvalidArgument(
        "error witness: the final step enters the error page because " +
        last.error_reason + ", not " + witness.reason);
  }
  WSV_COUNT1("verify/witnesses_validated");
  return Status::OK();
}

}  // namespace wsv

#include "reductions/fdid.h"

#include <set>

#include "common/str_util.h"
#include "ltl/ltl_parser.h"
#include "ws/builder.h"

namespace wsv {

bool FdImplies(const FdidInstance& instance) {
  std::set<int> closure(instance.goal.lhs.begin(), instance.goal.lhs.end());
  bool grew = true;
  while (grew) {
    grew = false;
    for (const Fd& fd : instance.fds) {
      if (closure.count(fd.rhs) > 0) continue;
      bool applies = true;
      for (int c : fd.lhs) {
        if (closure.count(c) == 0) applies = false;
      }
      if (applies) {
        closure.insert(fd.rhs);
        grew = true;
      }
    }
  }
  return closure.count(instance.goal.rhs) > 0;
}

namespace {

std::vector<std::string> Vars(const std::string& prefix, int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

// Projection body: exists <non-projected vars> . S(args) & <equalities>,
// where args[c] is the head variable for projected columns and a fresh
// variable otherwise. A column projected twice (e.g. the goal FD A -> A)
// pins both head variables to it via an equality conjunct.
std::string ProjectionBody(int arity, const std::vector<int>& cols,
                           const std::vector<std::string>& head_vars) {
  std::vector<std::string> args(arity);
  for (int c = 0; c < arity; ++c) {
    args[c] = StrCat({"o", std::to_string(c)});
  }
  std::vector<std::string> equalities;
  std::set<int> projected;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (projected.insert(cols[i]).second) {
      args[cols[i]] = head_vars[i];
    } else {
      equalities.push_back(head_vars[i] + " = " + args[cols[i]]);
    }
  }
  std::vector<std::string> bound;
  for (int c = 0; c < arity; ++c) {
    if (projected.count(c) == 0) bound.push_back(args[c]);
  }
  std::string atom = "S(" + Join(args, ", ") + ")";
  for (const std::string& eq : equalities) atom += " & " + eq;
  if (bound.empty()) return atom;
  return "exists " + Join(bound, ", ") + " . " + atom;
}

}  // namespace

StatusOr<FdidReduction> BuildFdidReduction(const FdidInstance& instance) {
  const int k = instance.arity;
  ServiceBuilder b("Fdid");
  b.Database("R", 1);
  b.Input("Ins", k);
  b.Input("done", 0);
  b.State("S", k);
  b.State("stop1", 0).State("stop2", 0);

  // Declare per-dependency relations.
  std::vector<std::string> viols;
  for (size_t i = 0; i < instance.inds.size(); ++i) {
    const Ind& ind = instance.inds[i];
    std::string sx = "IX" + std::to_string(i);
    std::string sy = "IY" + std::to_string(i);
    std::string sbar = "IBar" + std::to_string(i);
    std::string viol = "violI" + std::to_string(i);
    b.State(sx, static_cast<int>(ind.lhs.size()));
    b.State(sy, static_cast<int>(ind.rhs.size()));
    b.State(sbar, static_cast<int>(ind.lhs.size()));
    b.State(viol, 0);
    viols.push_back(viol);
  }
  for (size_t i = 0; i < instance.fds.size(); ++i) {
    const Fd& fd = instance.fds[i];
    std::string sxa = "FX" + std::to_string(i);
    std::string sbar = "FBar" + std::to_string(i);
    std::string viol = "violF" + std::to_string(i);
    b.State(sxa, static_cast<int>(fd.lhs.size()) + 1);
    b.State(sbar, static_cast<int>(fd.lhs.size()) + 2);
    b.State(viol, 0);
    viols.push_back(viol);
  }
  b.State("GX", static_cast<int>(instance.goal.lhs.size()) + 1);
  b.State("GBar", static_cast<int>(instance.goal.lhs.size()) + 2);

  PageBuilder page = b.Page("Main");
  {
    std::vector<std::string> xs = Vars("x", k);
    std::vector<std::string> guards;
    for (const std::string& x : xs) guards.push_back("R(" + x + ")");
    page.Options("Ins(" + Join(xs, ", ") + ")", Join(guards, " & "));
    page.UseInput("done");
    page.Insert("S(" + Join(xs, ", ") + ")",
                "Ins(" + Join(xs, ", ") + ") & !stop1");
    page.Insert("stop1", "done");
    page.Insert("stop2", "stop1");
  }
  for (size_t i = 0; i < instance.inds.size(); ++i) {
    const Ind& ind = instance.inds[i];
    std::string si = std::to_string(i);
    std::vector<std::string> xs = Vars("x", static_cast<int>(ind.lhs.size()));
    std::string head = StrCat({"(", Join(xs, ", "), ")"});
    page.Insert("IX" + si + head, ProjectionBody(k, ind.lhs, xs));
    page.Insert("IY" + si + head, ProjectionBody(k, ind.rhs, xs));
    page.Insert("IBar" + si + head, "IX" + si + head + " & !IY" + si + head +
                                        " & stop2");
    page.Insert("violI" + si,
                "exists " + Join(xs, ", ") + " . IBar" + si + head);
  }
  auto add_fd = [&](const Fd& fd, const std::string& sxa,
                    const std::string& sbar) {
    std::vector<std::string> xs = Vars("x", static_cast<int>(fd.lhs.size()));
    std::vector<int> cols = fd.lhs;
    cols.push_back(fd.rhs);
    std::vector<std::string> head_xa = xs;
    head_xa.push_back("a0");
    page.Insert(sxa + "(" + Join(head_xa, ", ") + ")",
                ProjectionBody(k, cols, head_xa));
    std::vector<std::string> head_bar = xs;
    head_bar.push_back("a1");
    head_bar.push_back("a2");
    std::vector<std::string> args1 = xs, args2 = xs;
    args1.push_back("a1");
    args2.push_back("a2");
    page.Insert(sbar + "(" + Join(head_bar, ", ") + ")",
                sxa + "(" + Join(args1, ", ") + ") & " + sxa + "(" +
                    Join(args2, ", ") + ") & a1 != a2 & stop2");
  };
  for (size_t i = 0; i < instance.fds.size(); ++i) {
    std::string si = std::to_string(i);
    add_fd(instance.fds[i], "FX" + si, "FBar" + si);
    std::vector<std::string> xs =
        Vars("x", static_cast<int>(instance.fds[i].lhs.size()));
    xs.push_back("a1");
    xs.push_back("a2");
    page.Insert("violF" + si,
                "exists " + Join(xs, ", ") + " . FBar" + si + "(" +
                    Join(xs, ", ") + ")");
  }
  add_fd(instance.goal, "GX", "GBar");

  b.Home("Main").Error("ERR");
  WSV_ASSIGN_OR_RETURN(WebService service, b.Build());

  // forall x..,a1,a2 . G(!done) | (F done & (F viol | G !GBar(...))).
  std::vector<std::string> gvars =
      Vars("x", static_cast<int>(instance.goal.lhs.size()));
  gvars.push_back("a1");
  gvars.push_back("a2");
  std::string viol_disj = viols.empty() ? "false" : Join(viols, " | ");
  std::string text = "forall " + Join(gvars, ", ") +
                     " . G(!done) | (F(done) & (F(" + viol_disj +
                     ") | G(!GBar(" + Join(gvars, ", ") + "))))";
  FdidReduction out;
  WSV_ASSIGN_OR_RETURN(out.property,
                       ParseTemporalProperty(text, &service.vocab()));
  out.service = std::move(service);
  return out;
}

}  // namespace wsv

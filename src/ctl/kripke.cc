#include "ctl/kripke.h"

#include "common/str_util.h"

namespace wsv {

int Kripke::InternProp(const std::string& name) {
  auto it = prop_index_.find(name);
  if (it != prop_index_.end()) return it->second;
  int id = static_cast<int>(props_.size());
  prop_index_.emplace(name, id);
  props_.push_back(name);
  return id;
}

int Kripke::FindProp(const std::string& name) const {
  auto it = prop_index_.find(name);
  return it == prop_index_.end() ? -1 : it->second;
}

int Kripke::AddState(std::set<int> label) {
  labels_.push_back(std::move(label));
  succ_.emplace_back();
  initial_.push_back(0);
  return static_cast<int>(labels_.size() - 1);
}

void Kripke::AddEdge(int from, int to) { succ_[from].push_back(to); }

void Kripke::SetInitial(int state, bool initial) {
  initial_[state] = initial ? 1 : 0;
}

std::vector<int> Kripke::InitialStates() const {
  std::vector<int> out;
  for (size_t s = 0; s < initial_.size(); ++s) {
    if (initial_[s]) out.push_back(static_cast<int>(s));
  }
  return out;
}

Status Kripke::CheckTotal() const {
  for (size_t s = 0; s < succ_.size(); ++s) {
    if (succ_[s].empty()) {
      return Status::InvalidArgument("Kripke state " + std::to_string(s) +
                                     " has no successor");
    }
  }
  return Status::OK();
}

std::string Kripke::ToString() const {
  std::string out = "Kripke structure: " + std::to_string(size()) +
                    " states, " + std::to_string(props_.size()) +
                    " propositions\n";
  for (size_t s = 0; s < labels_.size(); ++s) {
    out += "  " + std::to_string(s) + (initial_[s] ? "*" : "") + ": {";
    bool first = true;
    for (int p : labels_[s]) {
      if (!first) out += ", ";
      first = false;
      out += props_[static_cast<size_t>(p)];
    }
    out += "} ->";
    for (int t : succ_[s]) out += StrCat({" ", std::to_string(t)});
    out += "\n";
  }
  return out;
}

}  // namespace wsv

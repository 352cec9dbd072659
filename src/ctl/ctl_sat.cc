#include "ctl/ctl_sat.h"

#include <map>

#include "common/str_util.h"

namespace wsv {

namespace {

// E-only normalization of a CTL formula.
StatusOr<TFormulaPtr> ToExistentialNormalForm(const TFormula& f) {
  switch (f.kind()) {
    case TFormula::Kind::kFo:
      return TFormula::Fo(f.fo());
    case TFormula::Kind::kNot: {
      WSV_ASSIGN_OR_RETURN(TFormulaPtr c,
                           ToExistentialNormalForm(*f.children()[0]));
      return TFormula::Not(std::move(c));
    }
    case TFormula::Kind::kAnd:
    case TFormula::Kind::kOr: {
      std::vector<TFormulaPtr> parts;
      for (const TFormulaPtr& c : f.children()) {
        WSV_ASSIGN_OR_RETURN(TFormulaPtr ec, ToExistentialNormalForm(*c));
        parts.push_back(std::move(ec));
      }
      return f.kind() == TFormula::Kind::kAnd
                 ? TFormula::And(std::move(parts))
                 : TFormula::Or(std::move(parts));
    }
    case TFormula::Kind::kE:
    case TFormula::Kind::kA: {
      const TFormula& path = *f.children()[0];
      bool universal = f.kind() == TFormula::Kind::kA;
      switch (path.kind()) {
        case TFormula::Kind::kX: {
          WSV_ASSIGN_OR_RETURN(TFormulaPtr c,
                               ToExistentialNormalForm(*path.children()[0]));
          if (universal) {
            // AX p = !EX !p.
            return TFormula::Not(
                TFormula::E(TFormula::X(TFormula::Not(std::move(c)))));
          }
          return TFormula::E(TFormula::X(std::move(c)));
        }
        case TFormula::Kind::kU:
        case TFormula::Kind::kB: {
          WSV_ASSIGN_OR_RETURN(TFormulaPtr l,
                               ToExistentialNormalForm(*path.lhs()));
          WSV_ASSIGN_OR_RETURN(TFormulaPtr r,
                               ToExistentialNormalForm(*path.rhs()));
          bool is_until = path.kind() == TFormula::Kind::kU;
          if (universal) {
            // A(l U r) = !E(!l B !r); A(l B r) = !E(!l U !r).
            TFormulaPtr nl = TFormula::Not(std::move(l));
            TFormulaPtr nr = TFormula::Not(std::move(r));
            TFormulaPtr inner =
                is_until ? TFormula::B(std::move(nl), std::move(nr))
                         : TFormula::U(std::move(nl), std::move(nr));
            return TFormula::Not(TFormula::E(std::move(inner)));
          }
          return TFormula::E(is_until
                                 ? TFormula::U(std::move(l), std::move(r))
                                 : TFormula::B(std::move(l), std::move(r)));
        }
        default:
          return Status::InvalidArgument(
              "not a CTL formula (path quantifier over a non-temporal "
              "formula): " + f.ToString());
      }
    }
    default:
      return Status::InvalidArgument(
          "not a CTL formula (bare temporal operator): " + f.ToString());
  }
}

// Tableau node kinds after normalization.
enum class NodeKind { kTrue, kFalse, kProp, kNot, kAnd, kOr, kEx, kEu, kEb };

struct Node {
  NodeKind kind;
  std::string prop;            // kProp
  std::vector<int> children;   // kNot(1), kAnd/kOr(n), kEx(1), kEu/kEb(2)
  int ex_self = -1;            // kEu/kEb: index of the synthetic EX(this)
};

class SatTableau {
 public:
  StatusOr<CtlSatResult> Run(const TFormula& formula) {
    WSV_ASSIGN_OR_RETURN(TFormulaPtr enf, ToExistentialNormalForm(formula));
    WSV_ASSIGN_OR_RETURN(root_, Flatten(*enf));
    // Synthesize EX(e) nodes for each EU/EB node e.
    for (size_t i = 0, n = nodes_.size(); i < n; ++i) {
      if (nodes_[i].kind == NodeKind::kEu ||
          nodes_[i].kind == NodeKind::kEb) {
        Node ex;
        ex.kind = NodeKind::kEx;
        ex.children.push_back(static_cast<int>(i));
        nodes_[i].ex_self = static_cast<int>(nodes_.size());
        nodes_.push_back(std::move(ex));
      }
    }
    return Decide();
  }

 private:
  // Flattens the FO-propositional structure and the temporal skeleton
  // into one node DAG (children before parents).
  StatusOr<int> FlattenFo(const Formula& fo) {
    switch (fo.kind()) {
      case Formula::Kind::kTrue:
        return AddNode(Node{NodeKind::kTrue, "", {}, -1}, "true");
      case Formula::Kind::kFalse:
        return AddNode(Node{NodeKind::kFalse, "", {}, -1}, "false");
      case Formula::Kind::kAtom:
        if (!fo.atom().terms.empty()) {
          return Status::InvalidArgument(
              "CTL satisfiability requires propositional formulas; got " +
              fo.atom().ToString());
        }
        return AddNode(Node{NodeKind::kProp, fo.atom().relation, {}, -1},
                       "p:" + fo.atom().relation);
      case Formula::Kind::kNot: {
        WSV_ASSIGN_OR_RETURN(int c, FlattenFo(*fo.children()[0]));
        return AddNode(Node{NodeKind::kNot, "", {c}, -1},
                       "!#" + std::to_string(c));
      }
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr: {
        Node n;
        n.kind = fo.kind() == Formula::Kind::kAnd ? NodeKind::kAnd
                                                  : NodeKind::kOr;
        std::string key = n.kind == NodeKind::kAnd ? "&" : "|";
        for (const FormulaPtr& c : fo.children()) {
          WSV_ASSIGN_OR_RETURN(int ci, FlattenFo(*c));
          n.children.push_back(ci);
          key += StrCat({"#", std::to_string(ci)});
        }
        return AddNode(std::move(n), key);
      }
      default:
        return Status::InvalidArgument(
            "non-propositional FO leaf in CTL satisfiability: " +
            fo.ToString());
    }
  }

  StatusOr<int> Flatten(const TFormula& f) {
    switch (f.kind()) {
      case TFormula::Kind::kFo:
        return FlattenFo(*f.fo());
      case TFormula::Kind::kNot: {
        WSV_ASSIGN_OR_RETURN(int c, Flatten(*f.children()[0]));
        return AddNode(Node{NodeKind::kNot, "", {c}, -1},
                       "!#" + std::to_string(c));
      }
      case TFormula::Kind::kAnd:
      case TFormula::Kind::kOr: {
        Node n;
        n.kind = f.kind() == TFormula::Kind::kAnd ? NodeKind::kAnd
                                                  : NodeKind::kOr;
        std::string key = n.kind == NodeKind::kAnd ? "&" : "|";
        for (const TFormulaPtr& c : f.children()) {
          WSV_ASSIGN_OR_RETURN(int ci, Flatten(*c));
          n.children.push_back(ci);
          key += StrCat({"#", std::to_string(ci)});
        }
        return AddNode(std::move(n), key);
      }
      case TFormula::Kind::kE: {
        const TFormula& path = *f.children()[0];
        if (path.kind() == TFormula::Kind::kX) {
          WSV_ASSIGN_OR_RETURN(int c, Flatten(*path.children()[0]));
          return AddNode(Node{NodeKind::kEx, "", {c}, -1},
                         "EX#" + std::to_string(c));
        }
        WSV_ASSIGN_OR_RETURN(int l, Flatten(*path.lhs()));
        WSV_ASSIGN_OR_RETURN(int r, Flatten(*path.rhs()));
        NodeKind kind = path.kind() == TFormula::Kind::kU ? NodeKind::kEu
                                                          : NodeKind::kEb;
        std::string key = (kind == NodeKind::kEu ? "EU#" : "EB#") +
                          std::to_string(l) + "#" + std::to_string(r);
        return AddNode(Node{kind, "", {l, r}, -1}, key);
      }
      default:
        return Status::Internal("non-ENF node after normalization");
    }
  }

  StatusOr<int> AddNode(Node node, const std::string& key) {
    auto it = node_index_.find(key);
    if (it != node_index_.end()) return it->second;
    int id = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(node));
    node_index_[key] = id;
    return id;
  }

  bool IsElementary(const Node& n) const {
    return n.kind == NodeKind::kProp || n.kind == NodeKind::kEx;
  }

  StatusOr<CtlSatResult> Decide() {
    // Elementary positions.
    std::vector<int> elem_pos(nodes_.size(), -1);
    int num_elem = 0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (IsElementary(nodes_[i])) elem_pos[i] = num_elem++;
    }
    if (num_elem > 22) {
      return Status::ResourceExhausted(
          "CTL formula has " + std::to_string(num_elem) +
          " elementary subformulas; tableau would be too large");
    }

    // Derive all node values per state. EU/EB derive from their
    // synthetic EX node, which appears later in the node list; derive in
    // two passes: elementary + EX first (free bits), then everything in
    // index order (children of EU/EB precede them; EX-self bits are
    // elementary so already set).
    const uint64_t num_states = uint64_t{1} << num_elem;
    std::vector<std::vector<char>> val(num_states);
    for (uint64_t s = 0; s < num_states; ++s) {
      std::vector<char>& v = val[s];
      v.assign(nodes_.size(), 0);
      for (size_t i = 0; i < nodes_.size(); ++i) {
        if (IsElementary(nodes_[i])) v[i] = (s >> elem_pos[i]) & 1;
      }
      for (size_t i = 0; i < nodes_.size(); ++i) {
        const Node& n = nodes_[i];
        switch (n.kind) {
          case NodeKind::kTrue:
            v[i] = 1;
            break;
          case NodeKind::kFalse:
            v[i] = 0;
            break;
          case NodeKind::kNot:
            v[i] = v[n.children[0]] ? 0 : 1;
            break;
          case NodeKind::kAnd: {
            char b = 1;
            for (int c : n.children) b = b && v[c];
            v[i] = b;
            break;
          }
          case NodeKind::kOr: {
            char b = 0;
            for (int c : n.children) b = b || v[c];
            v[i] = b;
            break;
          }
          case NodeKind::kEu:
            v[i] = v[n.children[1]] || (v[n.children[0]] && v[n.ex_self]);
            break;
          case NodeKind::kEb:
            v[i] = v[n.children[1]] && (v[n.children[0]] || v[n.ex_self]);
            break;
          case NodeKind::kProp:
          case NodeKind::kEx:
            break;  // elementary
        }
      }
    }

    // Deduplicate states by derived valuation? Different elementary
    // assignments give different vectors, so every state is distinct.
    // Allowed edges: !EX phi at s forces !phi at t.
    std::vector<int> ex_nodes;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].kind == NodeKind::kEx) {
        ex_nodes.push_back(static_cast<int>(i));
      }
    }
    auto allowed = [&](uint64_t s, uint64_t t) {
      for (int x : ex_nodes) {
        if (!val[s][x] && val[t][nodes_[x].children[0]]) return false;
      }
      return true;
    };

    std::vector<char> alive(num_states, 1);
    bool changed = true;
    while (changed) {
      changed = false;

      // EX witnesses and totality.
      for (uint64_t s = 0; s < num_states; ++s) {
        if (!alive[s]) continue;
        bool ok = true;
        bool has_succ = false;
        for (uint64_t t = 0; t < num_states && (!has_succ || ok); ++t) {
          if (alive[t] && allowed(s, t)) has_succ = true;
        }
        if (!has_succ) ok = false;
        for (int x : ex_nodes) {
          if (!ok) break;
          if (!val[s][x]) continue;
          bool witness = false;
          for (uint64_t t = 0; t < num_states; ++t) {
            if (alive[t] && allowed(s, t) &&
                val[t][nodes_[x].children[0]]) {
              witness = true;
              break;
            }
          }
          if (!witness) ok = false;
        }
        if (!ok) {
          alive[s] = 0;
          changed = true;
        }
      }

      // E-eventualities: E(pUq) asserted must be fulfillable.
      for (size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].kind != NodeKind::kEu) continue;
        std::vector<char> ef(num_states, 0);
        bool grow = true;
        while (grow) {
          grow = false;
          for (uint64_t s = 0; s < num_states; ++s) {
            if (!alive[s] || ef[s] || !val[s][i]) continue;
            if (val[s][nodes_[i].children[1]]) {
              ef[s] = 1;
              grow = true;
              continue;
            }
            for (uint64_t t = 0; t < num_states; ++t) {
              if (alive[t] && allowed(s, t) && val[t][i] && ef[t]) {
                ef[s] = 1;
                grow = true;
                break;
              }
            }
          }
        }
        for (uint64_t s = 0; s < num_states; ++s) {
          if (alive[s] && val[s][i] && !ef[s]) {
            alive[s] = 0;
            changed = true;
          }
        }
      }

      // A-eventualities: !E(pBq), i.e. A(!p U !q), asserted at every
      // state where an EB node is false — every path must reach !q.
      for (size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].kind != NodeKind::kEb) continue;
        int pq = nodes_[i].children[1];  // q
        std::vector<char> af(num_states, 0);
        bool grow = true;
        while (grow) {
          grow = false;
          for (uint64_t s = 0; s < num_states; ++s) {
            if (!alive[s] || af[s] || val[s][i]) continue;
            if (!val[s][pq]) {  // !q holds: fulfilled
              af[s] = 1;
              grow = true;
              continue;
            }
            // Deferral: choose a successor set among allowed alive
            // states (all of which carry the obligation, since !EX(EB)
            // propagates !EB): every EX demand needs a witness in AF,
            // and at least one successor must be in AF.
            bool all_ex_ok = true;
            for (int x : ex_nodes) {
              if (!val[s][x]) continue;
              bool witness = false;
              for (uint64_t t = 0; t < num_states; ++t) {
                if (alive[t] && allowed(s, t) &&
                    val[t][nodes_[x].children[0]] && af[t]) {
                  witness = true;
                  break;
                }
              }
              if (!witness) {
                all_ex_ok = false;
                break;
              }
            }
            if (!all_ex_ok) continue;
            bool any = false;
            for (uint64_t t = 0; t < num_states; ++t) {
              if (alive[t] && allowed(s, t) && af[t]) {
                any = true;
                break;
              }
            }
            if (any) {
              af[s] = 1;
              grow = true;
            }
          }
        }
        for (uint64_t s = 0; s < num_states; ++s) {
          if (alive[s] && !val[s][i] && !af[s]) {
            alive[s] = 0;
            changed = true;
          }
        }
      }
    }

    CtlSatResult result;
    result.tableau_states = num_states;
    for (uint64_t s = 0; s < num_states; ++s) {
      if (alive[s]) {
        ++result.surviving_states;
        if (val[s][root_]) result.satisfiable = true;
      }
    }
    return result;
  }

  std::vector<Node> nodes_;
  std::map<std::string, int> node_index_;
  int root_ = -1;
};

}  // namespace

StatusOr<CtlSatResult> CtlSatisfiable(const TFormula& formula) {
  SatTableau tableau;
  return tableau.Run(formula);
}

}  // namespace wsv

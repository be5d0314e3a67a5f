#include "analysis/ddg.hpp"

#include "support/error.hpp"

namespace ac::analysis {

int Ddg::node(const std::string& label, NodeKind kind) {
  auto [it, inserted] = index_.emplace(label, static_cast<int>(labels_.size()));
  if (inserted) {
    labels_.push_back(label);
    kinds_.push_back(kind);
  } else if (kind == NodeKind::MliVar) {
    // A node can be discovered as a register/local first and later identified
    // as MLI; MLI status wins.
    kinds_[static_cast<std::size_t>(it->second)] = kind;
  }
  return it->second;
}

void Ddg::add_edge(int parent, int child) {
  AC_CHECK(parent >= 0 && parent < num_nodes() && child >= 0 && child < num_nodes(),
           "ddg edge endpoint out of range");
  if (parent == child) return;  // self-loops carry no contraction information
  if (edge_keys_.insert(edge_key(parent, child)).second) edges_.emplace(parent, child);
}

int Ddg::find(const std::string& label) const {
  auto it = index_.find(label);
  return it == index_.end() ? -1 : it->second;
}

std::vector<int> Ddg::parents(int n) const {
  std::vector<int> out;
  for (const auto& [p, c] : edges_) {
    if (c == n) out.push_back(p);
  }
  return out;
}

std::vector<int> Ddg::children(int n) const {
  std::vector<int> out;
  for (const auto& [p, c] : edges_) {
    if (p == n) out.push_back(c);
  }
  return out;
}

Ddg Ddg::contract() const {
  // Build adjacency (child -> parents) once.
  std::vector<std::vector<int>> parent_of(static_cast<std::size_t>(num_nodes()));
  for (const auto& [p, c] : edges_) parent_of[static_cast<std::size_t>(c)].push_back(p);

  Ddg out;
  std::vector<int> out_id(static_cast<std::size_t>(num_nodes()), -1);
  for (int n = 0; n < num_nodes(); ++n) {
    if (kinds_[static_cast<std::size_t>(n)] == NodeKind::MliVar) {
      out_id[static_cast<std::size_t>(n)] = out.node(labels_[static_cast<std::size_t>(n)], NodeKind::MliVar);
    }
  }

  // For each MLI vertex walk upward through non-MLI ancestors; every MLI
  // ancestor first reached through such a chain becomes a contracted parent.
  std::vector<char> visited(static_cast<std::size_t>(num_nodes()));
  for (int n = 0; n < num_nodes(); ++n) {
    if (kinds_[static_cast<std::size_t>(n)] != NodeKind::MliVar) continue;
    std::fill(visited.begin(), visited.end(), 0);
    std::vector<int> stack = parent_of[static_cast<std::size_t>(n)];
    while (!stack.empty()) {
      const int p = stack.back();
      stack.pop_back();
      if (visited[static_cast<std::size_t>(p)]) continue;
      visited[static_cast<std::size_t>(p)] = 1;
      if (kinds_[static_cast<std::size_t>(p)] == NodeKind::MliVar) {
        out.add_edge(out_id[static_cast<std::size_t>(p)], out_id[static_cast<std::size_t>(n)]);
        continue;  // stop at the first MLI vertex along the chain
      }
      for (int pp : parent_of[static_cast<std::size_t>(p)]) stack.push_back(pp);
    }
  }
  return out;
}

std::string Ddg::to_dot() const {
  std::string out = "digraph ddg {\n";
  for (int n = 0; n < num_nodes(); ++n) {
    const char* shape = "ellipse";
    const char* style = "solid";
    switch (kinds_[static_cast<std::size_t>(n)]) {
      case NodeKind::MliVar: shape = "box"; break;
      case NodeKind::OtherVar: shape = "ellipse"; break;
      case NodeKind::Register: style = "dashed"; break;
    }
    out += "  n" + std::to_string(n) + " [label=\"" + labels_[static_cast<std::size_t>(n)] +
           "\", shape=" + shape + ", style=" + style + "];\n";
  }
  for (const auto& [p, c] : edges_) {
    out += "  n" + std::to_string(p) + " -> n" + std::to_string(c) + ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace ac::analysis

#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace mcds::graph {

Graph::Graph(std::size_t n, std::span<const std::pair<NodeId, NodeId>> edges)
    : n_(n), offsets_(n + 1, 0) {
  for (const auto& [u, v] : edges) add_edge(u, v);
  finalize();
}

Graph::Graph(std::size_t n, std::vector<std::uint32_t> offsets,
             std::vector<NodeId> neighbors)
    : n_(n), offsets_(std::move(offsets)), neighbors_(std::move(neighbors)) {
  if (offsets_.size() != n + 1 || offsets_.front() != 0 ||
      offsets_.back() != neighbors_.size()) {
    throw std::invalid_argument(
        "Graph: offsets must hold n + 1 boundaries from 0 to "
        "neighbors.size()");
  }
  for (std::size_t u = 0; u < n; ++u) {
    if (offsets_[u] > offsets_[u + 1]) {
      throw std::invalid_argument("Graph: offsets decrease at node " +
                                  std::to_string(u));
    }
  }
  NodeId top = 0;  // a max-reduction the compiler vectorizes
  for (const NodeId v : neighbors_) top = std::max(top, v);
  if (!neighbors_.empty() && top >= n) {
    throw std::invalid_argument("Graph: neighbor " + std::to_string(top) +
                                " out of range (n=" + std::to_string(n) +
                                ")");
  }
  if (neighbors_.size() % 2 != 0) {
    throw std::invalid_argument("Graph: odd adjacency count");
  }
  num_edges_ = neighbors_.size() / 2;
}

void Graph::check_node(NodeId u) const {
  if (u >= n_) {
    throw std::invalid_argument("Graph: node " + std::to_string(u) +
                                " out of range (n=" + std::to_string(n_) +
                                ")");
  }
}

void Graph::thaw() {
  // Stage into a local so a mid-loop allocation failure leaves the graph
  // exactly as it was (still finalized, CSR intact); only the noexcept
  // moves below commit the transition.
  std::vector<std::vector<NodeId>> staged(n_);
  for (NodeId u = 0; u < n_; ++u) {
    const auto list = std::span<const NodeId>{
        neighbors_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
    staged[u].assign(list.begin(), list.end());
  }
  build_adj_ = std::move(staged);
  neighbors_.clear();
  finalized_ = false;
}

void Graph::add_edge(NodeId u, NodeId v) {
  check_node(u);
  check_node(v);
  if (u == v) throw std::invalid_argument("Graph: self-loops not allowed");
  if (finalized_) thaw();
  auto& fwd = build_adj_[u];
  auto& rev = build_adj_[v];
  // Pre-grow both endpoint lists (geometrically, to keep push_back
  // amortized O(1)) so the two inserts below cannot throw: an edge is
  // recorded in both lists or in neither, never half-way.
  if (fwd.size() == fwd.capacity()) {
    fwd.reserve(fwd.empty() ? 4 : fwd.capacity() * 2);
  }
  if (rev.size() == rev.capacity()) {
    rev.reserve(rev.empty() ? 4 : rev.capacity() * 2);
  }
  fwd.push_back(v);
  rev.push_back(u);
}

void Graph::finalize() {
  if (finalized_) return;
  num_edges_ = 0;
  std::size_t total = 0;
  for (auto& list : build_adj_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    total += list.size();
  }
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("Graph::finalize: adjacency exceeds 32-bit CSR");
  }
  offsets_.assign(n_ + 1, 0);
  neighbors_.clear();
  neighbors_.reserve(total);
  for (NodeId u = 0; u < n_; ++u) {
    offsets_[u] = static_cast<std::uint32_t>(neighbors_.size());
    neighbors_.insert(neighbors_.end(), build_adj_[u].begin(),
                      build_adj_[u].end());
  }
  offsets_[n_] = static_cast<std::uint32_t>(neighbors_.size());
  num_edges_ = total / 2;
  build_adj_.clear();
  build_adj_.shrink_to_fit();
  finalized_ = true;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  if (!finalized_) {
    throw std::logic_error("Graph::has_edge requires a finalized graph");
  }
  const auto list = neighbors(u);
  return std::binary_search(list.begin(), list.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> Graph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < n_; ++u) {
    for (const NodeId v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

FrozenGraph::FrozenGraph(const Graph& g)
    : offsets_(g.offsets_.data()),
      neighbors_(g.neighbors_.data()),
      n_(g.n_) {
  if (!g.finalized()) {
    throw std::logic_error("FrozenGraph: graph must be finalized");
  }
}

bool FrozenGraph::has_edge(NodeId u, NodeId v) const noexcept {
  const auto list = neighbors(u);
  return std::binary_search(list.begin(), list.end(), v);
}

NestedGraph::NestedGraph(const Graph& g) : adj_(g.num_nodes()) {
  if (!g.finalized()) {
    throw std::logic_error("NestedGraph: graph must be finalized");
  }
  // Replay every edge as two push_backs, interleaved across endpoint
  // lists exactly like the historical build path — the resulting
  // growth-doubling allocations are the scattered layout the CSR
  // comparison benchmarks measure against. Per-list order ends up
  // sorted afterwards, matching a finalized graph's query contract.
  for (const auto& [u, v] : g.edges()) {
    adj_[u].push_back(v);
    adj_[v].push_back(u);
  }
  for (auto& list : adj_) std::sort(list.begin(), list.end());
}

}  // namespace mcds::graph

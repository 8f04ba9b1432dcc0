#include "ground/ground_scc.h"

namespace tiebreak {

namespace {

// Adjacency adapter feeding ComputeSccOver from the CSR spans.
struct GroundAdjacency {
  const GroundGraph* graph;
  GroundLiveness live;

  // Merge positions into the positive/negative consumer spans of an atom
  // (rule nodes use neither; their single head edge is tracked by `pos`).
  struct Cursor {
    size_t pos = 0;
    size_t neg = 0;
  };

  int32_t num_nodes() const {
    return graph->num_atoms() + graph->num_rules();
  }
  bool Alive(int32_t node) const {
    return node < graph->num_atoms()
               ? live.AtomLive(node)
               : live.RuleAlive(node - graph->num_atoms());
  }
  Cursor FirstEdge(int32_t) const { return Cursor{}; }
  int32_t NextNeighbor(int32_t node, Cursor& cursor) const {
    const int32_t num_atoms = graph->num_atoms();
    if (node < num_atoms) {
      // Merged consumer walk: ascending rule id, positive before negative
      // on ties — the live_graph.cc edge insertion order (see the
      // ground_scc.h file comment). Dead rules carry no edges.
      const IdSpan pos = graph->PositiveConsumers(node);
      const IdSpan neg = graph->NegativeConsumers(node);
      while (cursor.pos < pos.size() || cursor.neg < neg.size()) {
        int32_t r;
        if (cursor.neg >= neg.size() ||
            (cursor.pos < pos.size() && pos[cursor.pos] <= neg[cursor.neg])) {
          r = pos[cursor.pos++];
        } else {
          r = neg[cursor.neg++];
        }
        if (live.RuleAlive(r)) return num_atoms + r;
      }
      return -1;
    }
    // Rule node: one head edge, present while the head atom is live.
    if (cursor.pos != 0) return -1;
    cursor.pos = 1;
    const AtomId head = graph->HeadOf(node - num_atoms);
    return live.AtomLive(head) ? head : -1;
  }
};

// Enumerates the live edges of the (restricted) ground graph once:
// fn(from_node, to_node) per edge, rule nodes offset by num_atoms. Same
// edge multiset as the materialized live graph (duplicate body occurrences
// included), which keeps external_in_degree counts identical.
template <typename Fn>
void ForEachLiveEdge(const GroundGraph& graph, const GroundLiveness& live,
                     Fn&& fn) {
  const int32_t num_atoms = graph.num_atoms();
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    if (!live.RuleAlive(r)) continue;
    const int32_t rule_node = num_atoms + r;
    for (AtomId a : graph.PositiveBody(r)) {
      if (live.AtomLive(a)) fn(a, rule_node);
    }
    for (AtomId a : graph.NegativeBody(r)) {
      if (live.AtomLive(a)) fn(a, rule_node);
    }
    const AtomId head = graph.HeadOf(r);
    if (live.AtomLive(head)) fn(rule_node, head);
  }
}

}  // namespace

SccResult ComputeGroundScc(const GroundGraph& graph,
                           const GroundLiveness& live) {
  TIEBREAK_CHECK(graph.finalized());
  return ComputeSccOver(GroundAdjacency{&graph, live});
}

Condensation CondenseGroundScc(const GroundGraph& graph, const SccResult& scc,
                               const GroundLiveness& live) {
  Condensation cond;
  cond.external_in_degree.assign(scc.num_components, 0);
  cond.has_internal_edge.assign(scc.num_components, 0);
  ForEachLiveEdge(graph, live, [&](int32_t from, int32_t to) {
    const int32_t from_comp = scc.component[from];
    const int32_t to_comp = scc.component[to];
    if (from_comp == to_comp) {
      cond.has_internal_edge[to_comp] = 1;
    } else {
      ++cond.external_in_degree[to_comp];
    }
  });
  return cond;
}

GroundTieCheck CheckGroundTie(const GroundGraph& graph, const SccResult& scc,
                              int32_t comp, const GroundLiveness& live,
                              std::vector<int32_t>* local_scratch) {
  const std::vector<int32_t>& members = scc.members[comp];
  TIEBREAK_CHECK(!members.empty());
  std::vector<int32_t>& local = *local_scratch;
  TIEBREAK_CHECK_GE(static_cast<int32_t>(local.size()),
                    graph.num_atoms() + graph.num_rules());
  const int32_t size = static_cast<int32_t>(members.size());
  for (int32_t i = 0; i < size; ++i) local[members[i]] = i;

  const int32_t num_atoms = graph.num_atoms();
  // Internal signed out-edges of one member node. BFS order is free here
  // (parity relative to the root is unique when the component is sign-
  // consistent, and any inconsistency fails the verification pass), so no
  // merged walk is needed — positives then negatives is fine.
  auto for_internal_out = [&](int32_t node, auto&& fn) {
    if (node < num_atoms) {
      for (int32_t r : graph.PositiveConsumers(node)) {
        if (live.RuleAlive(r) && scc.component[num_atoms + r] == comp) {
          fn(num_atoms + r, /*negative=*/false);
        }
      }
      for (int32_t r : graph.NegativeConsumers(node)) {
        if (live.RuleAlive(r) && scc.component[num_atoms + r] == comp) {
          fn(num_atoms + r, /*negative=*/true);
        }
      }
    } else {
      const AtomId head = graph.HeadOf(node - num_atoms);
      if (live.AtomLive(head) && scc.component[head] == comp) {
        fn(static_cast<int32_t>(head), /*negative=*/false);
      }
    }
  };

  GroundTieCheck result;
  result.side.assign(size, 0);
  std::vector<char> visited(size, 0);
  std::vector<int32_t> queue;
  queue.reserve(size);
  queue.push_back(members.front());
  visited[local[members.front()]] = 1;
  for (size_t head = 0; head < queue.size(); ++head) {
    const int32_t v = queue[head];
    const char v_side = result.side[local[v]];
    for_internal_out(v, [&](int32_t w, bool negative) {
      const int32_t w_local = local[w];
      if (visited[w_local]) return;
      visited[w_local] = 1;
      result.side[w_local] = static_cast<char>(v_side ^ (negative ? 1 : 0));
      queue.push_back(w);
    });
  }
  // Strong connectivity of the component guarantees full coverage.
  for (char v : visited) TIEBREAK_CHECK(v) << "SCC not strongly connected";

  // Verify every internal edge against the parity partition (Lemma 1).
  result.is_tie = true;
  for (int32_t v : members) {
    if (!result.is_tie) break;
    const char v_side = result.side[local[v]];
    for_internal_out(v, [&](int32_t w, bool negative) {
      const char expected = static_cast<char>(v_side ^ (negative ? 1 : 0));
      if (result.side[local[w]] != expected) result.is_tie = false;
    });
  }

  for (int32_t node : members) local[node] = -1;
  return result;
}

}  // namespace tiebreak

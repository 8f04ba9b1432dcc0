#include "workload/databases.h"

#include <limits>
#include <vector>

namespace tiebreak {

namespace {

std::vector<ConstId> InternNodes(Program* program, int32_t count) {
  std::vector<ConstId> nodes;
  nodes.reserve(count);
  for (int32_t i = 0; i < count; ++i) {
    nodes.push_back(program->InternConstant("n" + std::to_string(i)));
  }
  return nodes;
}

// Declares `relation` with the given arity, failing (instead of aborting)
// when it is already declared with a different one.
Result<PredId> RequireArity(Program* program, const std::string& relation,
                            int32_t arity) {
  const PredId pred = program->DeclarePredicate(relation, arity);
  if (program->predicate(pred).arity != arity) {
    return Status::InvalidArgument(
        "relation " + relation + " is declared with arity " +
        std::to_string(program->predicate(pred).arity) + ", generator needs " +
        std::to_string(arity));
  }
  return pred;
}

Status RequirePositive(const char* name, int64_t value) {
  if (value < 1) {
    return Status::InvalidArgument(std::string(name) + " must be >= 1, got " +
                                   std::to_string(value));
  }
  return Status::Ok();
}

Status RequireNonNegative(const char* name, int64_t value) {
  if (value < 0) {
    return Status::InvalidArgument(std::string(name) + " must be >= 0, got " +
                                   std::to_string(value));
  }
  return Status::Ok();
}

// width × height must fit an int32 node count.
Status RequireGrid(int32_t width, int32_t height) {
  Status s = RequirePositive("width", width);
  if (!s.ok()) return s;
  s = RequirePositive("height", height);
  if (!s.ok()) return s;
  if (height > std::numeric_limits<int32_t>::max() / width) {
    return Status::InvalidArgument(
        "grid of " + std::to_string(width) + " x " + std::to_string(height) +
        " cells overflows the int32 node count");
  }
  return Status::Ok();
}

}  // namespace

Result<Database> RandomDigraphDatabase(Program* program,
                                       const std::string& relation,
                                       int32_t num_nodes, int32_t num_edges,
                                       Rng* rng) {
  return LargeRandomDigraphDatabase(program, relation, num_nodes, num_edges,
                                    rng);
}

Result<Database> ChainDatabase(Program* program, const std::string& relation,
                               int32_t length) {
  Status s = RequirePositive("length", length);
  if (!s.ok()) return s;
  const std::vector<ConstId> nodes = InternNodes(program, length);
  Result<PredId> pred = RequireArity(program, relation, 2);
  if (!pred.ok()) return pred.status();
  Database database(*program);
  for (int32_t i = 0; i + 1 < length; ++i) {
    database.Insert(*pred, {nodes[i], nodes[i + 1]});
  }
  return database;
}

Result<Database> CycleDatabase(Program* program, const std::string& relation,
                               int32_t length) {
  Status s = RequirePositive("length", length);
  if (!s.ok()) return s;
  const std::vector<ConstId> nodes = InternNodes(program, length);
  Result<PredId> pred = RequireArity(program, relation, 2);
  if (!pred.ok()) return pred.status();
  Database database(*program);
  for (int32_t i = 0; i < length; ++i) {
    database.Insert(*pred, {nodes[i], nodes[(i + 1) % length]});
  }
  return database;
}

Result<Database> UnarySetDatabase(Program* program,
                                  const std::string& relation, int32_t size) {
  Status s = RequireNonNegative("size", size);
  if (!s.ok()) return s;
  const std::vector<ConstId> nodes = InternNodes(program, size);
  Result<PredId> pred = RequireArity(program, relation, 1);
  if (!pred.ok()) return pred.status();
  Database database(*program);
  for (ConstId node : nodes) database.Insert(*pred, {node});
  return database;
}

Result<Database> GridDatabase(Program* program, const std::string& relation,
                              int32_t width, int32_t height) {
  Status s = RequireGrid(width, height);
  if (!s.ok()) return s;
  const std::vector<ConstId> nodes = InternNodes(program, width * height);
  Result<PredId> pred = RequireArity(program, relation, 2);
  if (!pred.ok()) return pred.status();
  Database database(*program);
  for (int32_t y = 0; y < height; ++y) {
    for (int32_t x = 0; x < width; ++x) {
      const int32_t at = y * width + x;
      if (x + 1 < width) database.Insert(*pred, {nodes[at], nodes[at + 1]});
      if (y + 1 < height) {
        database.Insert(*pred, {nodes[at], nodes[at + width]});
      }
    }
  }
  return database;
}

Result<Database> LargeRandomDigraphDatabase(Program* program,
                                            const std::string& relation,
                                            int32_t num_nodes,
                                            int64_t num_edges, Rng* rng) {
  Status s = RequirePositive("num_nodes", num_nodes);
  if (!s.ok()) return s;
  s = RequireNonNegative("num_edges", num_edges);
  if (!s.ok()) return s;
  const std::vector<ConstId> nodes = InternNodes(program, num_nodes);
  Result<PredId> pred = RequireArity(program, relation, 2);
  if (!pred.ok()) return pred.status();
  Database database(*program);
  std::vector<ConstId> edges;
  edges.reserve(static_cast<size_t>(num_edges) * 2);
  for (int64_t e = 0; e < num_edges; ++e) {
    edges.push_back(nodes[rng->Below(num_nodes)]);
    edges.push_back(nodes[rng->Below(num_nodes)]);
  }
  database.BulkLoadFlat(*pred, std::move(edges));
  return database;
}

Result<Database> WideGridDatabase(Program* program,
                                  const std::string& relation, int32_t width,
                                  int32_t height) {
  Status s = RequireGrid(width, height);
  if (!s.ok()) return s;
  const std::vector<ConstId> nodes = InternNodes(program, width * height);
  Result<PredId> pred = RequireArity(program, relation, 2);
  if (!pred.ok()) return pred.status();
  Database database(*program);
  std::vector<ConstId> edges;
  edges.reserve(static_cast<size_t>(4) * width * height);
  for (int32_t y = 0; y < height; ++y) {
    for (int32_t x = 0; x < width; ++x) {
      const int32_t at = y * width + x;
      if (x + 1 < width) {
        edges.push_back(nodes[at]);
        edges.push_back(nodes[at + 1]);
      }
      if (y + 1 < height) {
        edges.push_back(nodes[at]);
        edges.push_back(nodes[at + width]);
      }
    }
  }
  database.BulkLoadFlat(*pred, std::move(edges));
  return database;
}

Result<Database> BalancedTreeDatabase(Program* program, int32_t depth) {
  Status s = RequireNonNegative("depth", depth);
  if (!s.ok()) return s;
  if (depth > 29) {
    return Status::InvalidArgument("depth " + std::to_string(depth) +
                                   " overflows the int32 node count");
  }
  const int32_t nodes = (1 << (depth + 1)) - 1;
  const std::vector<ConstId> ids = InternNodes(program, nodes);
  Result<PredId> up = RequireArity(program, "up", 2);
  if (!up.ok()) return up.status();
  Result<PredId> down = RequireArity(program, "down", 2);
  if (!down.ok()) return down.status();
  Result<PredId> sibling = RequireArity(program, "sibling", 2);
  if (!sibling.ok()) return sibling.status();
  Database database(*program);
  for (int32_t i = 1; i < nodes; ++i) {
    const int32_t parent = (i - 1) / 2;
    database.Insert(*up, {ids[i], ids[parent]});
    database.Insert(*down, {ids[parent], ids[i]});
  }
  for (int32_t i = 1; i + 1 < nodes; i += 2) {
    database.Insert(*sibling, {ids[i], ids[i + 1]});
    database.Insert(*sibling, {ids[i + 1], ids[i]});
  }
  return database;
}

Result<Database> RandomEdbDatabase(Program* program, int32_t universe_size,
                                   double density, Rng* rng) {
  Status s = RequirePositive("universe_size", universe_size);
  if (!s.ok()) return s;
  if (!(density >= 0.0 && density <= 1.0)) {
    return Status::InvalidArgument("density must lie in [0, 1], got " +
                                   std::to_string(density));
  }
  const std::vector<ConstId> nodes = InternNodes(program, universe_size);
  Database database(*program);
  for (PredId p = 0; p < program->num_predicates(); ++p) {
    if (!program->IsEdb(p)) continue;
    const int32_t arity = program->predicate(p).arity;
    // Odometer over all tuples of this arity.
    Tuple tuple(arity, nodes.empty() ? 0 : nodes.front());
    std::vector<size_t> odo(arity, 0);
    while (true) {
      if (rng->Chance(density)) database.Insert(p, tuple);
      int32_t pos = arity - 1;
      while (pos >= 0) {
        if (++odo[pos] < nodes.size()) {
          tuple[pos] = nodes[odo[pos]];
          break;
        }
        odo[pos] = 0;
        tuple[pos] = nodes.front();
        --pos;
      }
      if (pos < 0) break;
    }
  }
  return database;
}

}  // namespace tiebreak

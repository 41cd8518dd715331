#include "workload/generators.h"

#include <map>
#include <memory>
#include <random>

namespace aqua {

namespace {

Status RegisterTypeOnce(ObjectStore& store, const std::string& name,
                        std::vector<AttrDef> attrs) {
  if (store.schema().TypeIdOf(name).ok()) return Status::OK();
  return store.schema().RegisterType(name, std::move(attrs)).status();
}

}  // namespace

Status RegisterPersonType(ObjectStore& store) {
  return RegisterTypeOnce(store, "Person",
                          {{"name", ValueType::kString, true},
                           {"citizen", ValueType::kString, true},
                           {"eyes", ValueType::kString, true},
                           {"education", ValueType::kString, true},
                           {"age", ValueType::kInt, true}});
}

Status RegisterNoteType(ObjectStore& store) {
  return RegisterTypeOnce(store, "Note",
                          {{"pitch", ValueType::kString, true},
                           {"duration", ValueType::kInt, true}});
}

Status RegisterParseNodeType(ObjectStore& store) {
  // `op` is the paper's OpName method, modelled as a stored attribute
  // (§3.1 restricts predicates to stored attributes).
  return RegisterTypeOnce(store, "ParseNode",
                          {{"op", ValueType::kString, true}});
}

Status RegisterItemType(ObjectStore& store) {
  return RegisterTypeOnce(store, "Item",
                          {{"name", ValueType::kString, true},
                           {"val", ValueType::kInt, true}});
}

namespace {

Result<Oid> MakePerson(ObjectStore& store, const std::string& name,
                       const std::string& citizen, const std::string& eyes,
                       const std::string& education, int64_t age) {
  return store.Create("Person", {{"name", Value::String(name)},
                                 {"citizen", Value::String(citizen)},
                                 {"eyes", Value::String(eyes)},
                                 {"education", Value::String(education)},
                                 {"age", Value::Int(age)}});
}

}  // namespace

Result<Tree> MakePaperFamilyTree(ObjectStore& store) {
  AQUA_RETURN_IF_ERROR(RegisterPersonType(store));
  // Root Ted (USA); his children Ann (USA), Gen (Brazil), Ray (USA).
  // Gen's children: Joe (Brazil, child Bob) and John (USA, child Mary).
  // `Brazil(!?* USA !?*)` therefore matches exactly once, at Gen.
  AQUA_ASSIGN_OR_RETURN(Oid ted,
                        MakePerson(store, "Ted", "USA", "blue", "PhD", 82));
  AQUA_ASSIGN_OR_RETURN(Oid ann,
                        MakePerson(store, "Ann", "USA", "green", "BA", 57));
  AQUA_ASSIGN_OR_RETURN(
      Oid gen, MakePerson(store, "Gen", "Brazil", "brown", "MS", 55));
  AQUA_ASSIGN_OR_RETURN(Oid ray,
                        MakePerson(store, "Ray", "USA", "blue", "HS", 51));
  AQUA_ASSIGN_OR_RETURN(
      Oid joe, MakePerson(store, "Joe", "Brazil", "brown", "BA", 30));
  AQUA_ASSIGN_OR_RETURN(Oid john,
                        MakePerson(store, "John", "USA", "hazel", "MD", 28));
  AQUA_ASSIGN_OR_RETURN(
      Oid bob, MakePerson(store, "Bob", "Brazil", "brown", "HS", 7));
  AQUA_ASSIGN_OR_RETURN(Oid mary,
                        MakePerson(store, "Mary", "USA", "blue", "BS", 5));

  Tree t = Tree::Node(
      NodePayload::Cell(ted),
      {Tree::Leaf(NodePayload::Cell(ann)),
       Tree::Node(NodePayload::Cell(gen),
                  {Tree::Node(NodePayload::Cell(joe),
                              {Tree::Leaf(NodePayload::Cell(bob))}),
                   Tree::Node(NodePayload::Cell(john),
                              {Tree::Leaf(NodePayload::Cell(mary))})}),
       Tree::Leaf(NodePayload::Cell(ray))});
  return t;
}

Result<Tree> MakeFamilyTree(ObjectStore& store, const FamilyTreeSpec& spec) {
  AQUA_RETURN_IF_ERROR(RegisterPersonType(store));
  if (spec.num_people == 0) return Tree();
  std::mt19937_64 rng(spec.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const char* kEyes[] = {"blue", "green", "brown", "hazel"};
  const char* kEdu[] = {"HS", "BA", "BS", "MS", "MD", "PhD"};
  const char* kOther[] = {"France", "Japan", "India", "Kenya"};

  auto make_person = [&](size_t i) -> Result<Oid> {
    std::string citizen;
    double c = coin(rng);
    if (c < spec.brazil_fraction) {
      citizen = "Brazil";
    } else if (c < spec.brazil_fraction + 0.7) {
      citizen = "USA";
    } else {
      citizen = kOther[rng() % 4];
    }
    return MakePerson(store, "P" + std::to_string(i), citizen,
                      kEyes[rng() % 4], kEdu[rng() % 6],
                      static_cast<int64_t>(rng() % 90 + 5));
  };

  Tree t;
  AQUA_ASSIGN_OR_RETURN(Oid root_oid, make_person(0));
  NodeId root = t.AddNode(NodePayload::Cell(root_oid));
  AQUA_RETURN_IF_ERROR(t.SetRoot(root));
  std::vector<NodeId> open = {root};
  for (size_t i = 1; i < spec.num_people; ++i) {
    AQUA_ASSIGN_OR_RETURN(Oid oid, make_person(i));
    NodeId node = t.AddNode(NodePayload::Cell(oid));
    NodeId parent = open[rng() % open.size()];
    AQUA_RETURN_IF_ERROR(t.AddChild(parent, node));
    if (t.arity(parent) >= spec.max_children) {
      for (size_t j = 0; j < open.size(); ++j) {
        if (open[j] == parent) {
          open.erase(open.begin() + j);
          break;
        }
      }
    }
    open.push_back(node);
  }
  return t;
}

Result<List> MakeSong(ObjectStore& store, const SongSpec& spec) {
  AQUA_RETURN_IF_ERROR(RegisterNoteType(store));
  std::mt19937_64 rng(spec.seed);
  List song;
  for (size_t i = 0; i < spec.num_notes; ++i) {
    const std::string& pitch = spec.pitches[rng() % spec.pitches.size()];
    AQUA_ASSIGN_OR_RETURN(
        Oid note,
        store.Create("Note",
                     {{"pitch", Value::String(pitch)},
                      {"duration", Value::Int(static_cast<int64_t>(
                                       rng() % spec.max_duration + 1))}}));
    song.Append(NodePayload::Cell(note));
  }
  return song;
}

namespace {

class ParseTreeGen {
 public:
  ParseTreeGen(ObjectStore& store, const ParseTreeSpec& spec)
      : store_(store), spec_(spec), rng_(spec.seed) {}

  Result<Tree> Generate() {
    AQUA_ASSIGN_OR_RETURN(Tree t, Expr(spec_.num_exprs));
    return t;
  }

 private:
  Result<Oid> Node(const std::string& op) {
    return store_.Create("ParseNode", {{"op", Value::String(op)}});
  }

  Result<Tree> Expr(size_t budget) {
    if (budget <= 1) {
      AQUA_ASSIGN_OR_RETURN(Oid scan, Node("scan"));
      return Tree::Leaf(NodePayload::Cell(scan));
    }
    double c = std::uniform_real_distribution<double>(0, 1)(rng_);
    if (c < 0.5) {
      // select(input, predicate)
      AQUA_ASSIGN_OR_RETURN(Oid sel, Node("select"));
      AQUA_ASSIGN_OR_RETURN(Tree input, Expr(budget - 1));
      AQUA_ASSIGN_OR_RETURN(Tree pred, Pred(2));
      return Tree::Node(NodePayload::Cell(sel), {input, pred});
    }
    // join(left, right) or union(left, right)
    AQUA_ASSIGN_OR_RETURN(Oid op, Node(c < 0.8 ? "join" : "union"));
    size_t left_budget = 1 + rng_() % std::max<size_t>(budget - 1, 1);
    AQUA_ASSIGN_OR_RETURN(Tree left, Expr(left_budget));
    AQUA_ASSIGN_OR_RETURN(Tree right,
                          Expr(budget > left_budget ? budget - left_budget - 1
                                                    : 1));
    return Tree::Node(NodePayload::Cell(op), {left, right});
  }

  Result<Tree> Pred(size_t depth) {
    double c = std::uniform_real_distribution<double>(0, 1)(rng_);
    if (depth == 0 || c >= spec_.and_fraction + 0.2) {
      AQUA_ASSIGN_OR_RETURN(Oid cmp, Node("cmp"));
      return Tree::Leaf(NodePayload::Cell(cmp));
    }
    AQUA_ASSIGN_OR_RETURN(Oid op,
                          Node(c < spec_.and_fraction ? "and" : "or"));
    AQUA_ASSIGN_OR_RETURN(Tree left, Pred(depth - 1));
    AQUA_ASSIGN_OR_RETURN(Tree right, Pred(depth - 1));
    return Tree::Node(NodePayload::Cell(op), {left, right});
  }

  ObjectStore& store_;
  const ParseTreeSpec& spec_;
  std::mt19937_64 rng_;
};

}  // namespace

Result<Tree> MakeQueryParseTree(ObjectStore& store,
                                const ParseTreeSpec& spec) {
  AQUA_RETURN_IF_ERROR(RegisterParseNodeType(store));
  return ParseTreeGen(store, spec).Generate();
}

namespace {

/// The nodes of a growing random tree that may still take a child, in
/// creation order (node ids are handed out in that order). A Fenwick tree
/// over the ids answers "the k-th open node" and removal in O(log n), so
/// generating a tree is O(n log n) rather than quadratic, and draws the same
/// tree for a seed as an erase-in-place list would.
class OpenParents {
 public:
  explicit OpenParents(size_t capacity) : sums_(capacity + 1, 0) {}

  size_t size() const { return size_; }
  void Add(NodeId v) { Update(v, 1); }
  void Remove(NodeId v) { Update(v, -1); }

  /// The `k`-th open node (0-based) in creation order.
  NodeId At(size_t k) const {
    size_t pos = 0;
    size_t step = 1;
    while (step * 2 < sums_.size()) step *= 2;
    for (; step > 0; step /= 2) {
      if (pos + step < sums_.size() && sums_[pos + step] <= k) {
        pos += step;
        k -= sums_[pos];
      }
    }
    return static_cast<NodeId>(pos);  // Fenwick index pos + 1 holds node pos
  }

 private:
  void Update(NodeId v, int delta) {
    size_ += delta;
    for (size_t i = v + 1; i < sums_.size(); i += i & (~i + 1)) {
      sums_[i] += delta;
    }
  }

  std::vector<size_t> sums_;
  size_t size_ = 0;
};

}  // namespace

Result<Tree> MakeRandomTree(ObjectStore& store, const RandomTreeSpec& spec) {
  AQUA_RETURN_IF_ERROR(RegisterItemType(store));
  if (spec.num_nodes == 0) return Tree();
  std::mt19937_64 rng(spec.seed);
  auto make_item = [&]() -> Result<Oid> {
    const std::string& label = spec.labels[rng() % spec.labels.size()];
    return store.Create(
        "Item", {{"name", Value::String(label)},
                 {"val", Value::Int(static_cast<int64_t>(
                             rng() % std::max(spec.val_range, 1)))}});
  };
  Tree t;
  AQUA_ASSIGN_OR_RETURN(Oid root_oid, make_item());
  NodeId root = t.AddNode(NodePayload::Cell(root_oid));
  AQUA_RETURN_IF_ERROR(t.SetRoot(root));
  OpenParents open(spec.num_nodes);
  open.Add(root);
  for (size_t i = 1; i < spec.num_nodes; ++i) {
    AQUA_ASSIGN_OR_RETURN(Oid oid, make_item());
    NodeId node = t.AddNode(NodePayload::Cell(oid));
    NodeId parent = open.At(rng() % open.size());
    AQUA_RETURN_IF_ERROR(t.AddChild(parent, node));
    if (t.arity(parent) >= spec.max_children) open.Remove(parent);
    open.Add(node);
  }
  return t;
}

Result<List> MakeRandomList(ObjectStore& store, size_t num_items,
                            const std::vector<std::string>& labels,
                            uint64_t seed) {
  AQUA_RETURN_IF_ERROR(RegisterItemType(store));
  std::mt19937_64 rng(seed);
  List out;
  for (size_t i = 0; i < num_items; ++i) {
    AQUA_ASSIGN_OR_RETURN(
        Oid oid,
        store.Create("Item",
                     {{"name", Value::String(labels[rng() % labels.size()])},
                      {"val", Value::Int(static_cast<int64_t>(rng() % 100))}}));
    out.Append(NodePayload::Cell(oid));
  }
  return out;
}

Result<Tree> MakeChain(ObjectStore& store,
                       const std::vector<std::string>& labels, size_t length) {
  AQUA_RETURN_IF_ERROR(RegisterItemType(store));
  if (length == 0 || labels.empty()) return Tree();
  Tree t;
  NodeId prev = kInvalidNode;
  for (size_t i = 0; i < length; ++i) {
    AQUA_ASSIGN_OR_RETURN(
        Oid oid,
        store.Create("Item", {{"name", Value::String(labels[i % labels.size()])},
                              {"val", Value::Int(static_cast<int64_t>(i))}}));
    NodeId node = t.AddNode(NodePayload::Cell(oid));
    if (prev == kInvalidNode) {
      AQUA_RETURN_IF_ERROR(t.SetRoot(node));
    } else {
      AQUA_RETURN_IF_ERROR(t.AddChild(prev, node));
    }
    prev = node;
  }
  return t;
}

AtomFn MakeInterningAtomFn(ObjectStore* store, std::string type_name,
                           std::string attr) {
  auto cache = std::make_shared<std::map<std::string, Oid>>();
  return [store, type_name = std::move(type_name), attr = std::move(attr),
          cache](const std::string& token) -> Result<Oid> {
    auto it = cache->find(token);
    if (it != cache->end()) return it->second;
    AQUA_ASSIGN_OR_RETURN(
        Oid oid, store->Create(type_name, {{attr, Value::String(token)}}));
    cache->emplace(token, oid);
    return oid;
  };
}

}  // namespace aqua

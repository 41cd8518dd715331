#include "bulk/concat.h"

namespace aqua {

namespace {

// Recursively copies `src` starting at `node` into `dst`, substituting a
// copy of `attachment` (or nothing, when it is empty) at every concat point
// labeled `label`. Returns the new node id, or kInvalidNode when the node
// was deleted (point + nil attachment).
struct TreeSubstituter {
  const Tree* src;
  Tree* dst;
  const std::string* label;
  const Tree* attachment;

  NodeId Copy(NodeId s) {
    const NodePayload& p = src->payload(s);
    if (p.is_concat_point() && p.label() == *label) {
      if (attachment->empty()) return kInvalidNode;
      return CopyAttachment(attachment->root());
    }
    NodeId copy = dst->AddNode(p);
    for (NodeId c : src->children(s)) {
      NodeId cc = Copy(c);
      if (cc == kInvalidNode) continue;
      Attach(copy, cc);
    }
    return copy;
  }

  NodeId CopyAttachment(NodeId a) {
    NodeId copy = dst->AddNode(attachment->payload(a));
    for (NodeId c : attachment->children(a)) {
      Attach(copy, CopyAttachment(c));
    }
    return copy;
  }

  void Attach(NodeId parent, NodeId child) {
    // AddChild cannot fail here: both nodes are fresh and detached.
    Status st = dst->AddChild(parent, child);
    (void)st;
  }
};

}  // namespace

Tree ConcatAt(const Tree& base, const std::string& label,
              const Tree& attachment) {
  if (base.empty()) return base;
  if (!base.HasPoint(label)) return base;
  Tree out;
  TreeSubstituter sub{&base, &out, &label, &attachment};
  NodeId new_root = sub.Copy(base.root());
  if (new_root == kInvalidNode) return Tree();
  Status st = out.SetRoot(new_root);
  (void)st;
  return out;
}

Tree ConcatNilAt(const Tree& base, const std::string& label) {
  return ConcatAt(base, label, Tree());
}

Tree CloseAllPoints(const Tree& base) {
  // Closing every point with nil, in one copying pass: each point (and
  // anything under it) is dropped, which is what closing its labels one
  // by one produces, without a full copy per label. A point at the root
  // leaves the empty tree; a tree without points is returned as is.
  if (base.empty() || base.PointLabels().empty()) return base;
  struct Closer {
    const Tree& src;
    Tree* dst;
    NodeId Copy(NodeId s) {
      const NodePayload& p = src.payload(s);
      if (p.is_concat_point()) return kInvalidNode;
      NodeId copy = dst->AddNode(p);
      for (NodeId c : src.children(s)) {
        NodeId cc = Copy(c);
        if (cc == kInvalidNode) continue;
        // Cannot fail: both nodes are fresh and detached.
        Status st = dst->AddChild(copy, cc);
        (void)st;
      }
      return copy;
    }
  };
  Tree out;
  NodeId root = Closer{base, &out}.Copy(base.root());
  if (root == kInvalidNode) return Tree();
  Status st = out.SetRoot(root);
  (void)st;
  return out;
}

Tree SelfConcatElement(const Tree& t, const std::string& label, size_t k) {
  Tree out;  // nil
  // Build inside-out: the innermost copy gets nil at its point.
  for (size_t i = 0; i < k; ++i) {
    out = ConcatAt(t, label, out);
  }
  return out;
}

List Concat(const List& a, const List& b) {
  List out = a;
  for (const auto& e : b.elems()) out.Append(e);
  return out;
}

List ConcatAt(const List& a, const std::string& label, const List& b) {
  if (!a.HasPoint(label)) return a;
  List out;
  for (const auto& e : a.elems()) {
    if (e.is_concat_point() && e.label() == label) {
      for (const auto& be : b.elems()) out.Append(be);
    } else {
      out.Append(e);
    }
  }
  return out;
}

List ConcatNilAt(const List& a, const std::string& label) {
  return ConcatAt(a, label, List());
}

List CloseAllPoints(const List& a) {
  List out;
  for (const auto& e : a.elems()) {
    if (!e.is_concat_point()) out.Append(e);
  }
  return out;
}

Result<Tree> ListToTree(const List& list) {
  if (list.empty()) return Tree();
  for (size_t i = 0; i + 1 < list.size(); ++i) {
    if (list.at(i).is_concat_point()) {
      return Status::InvalidArgument(
          "a list-like tree can have a concatenation point only at the leaf "
          "(§6); found one at position " +
          std::to_string(i));
    }
  }
  // Build the chain bottom-up.
  Tree t;
  for (size_t i = list.size(); i > 0; --i) {
    const NodePayload& p = list.at(i - 1);
    if (t.empty()) {
      t = Tree::Leaf(p);
    } else {
      t = Tree::Node(p, {t});
    }
  }
  return t;
}

Result<List> TreeToList(const Tree& tree) {
  List out;
  if (tree.empty()) return out;
  NodeId n = tree.root();
  while (true) {
    out.Append(tree.payload(n));
    const auto& kids = tree.children(n);
    if (kids.empty()) break;
    if (kids.size() > 1) {
      return Status::InvalidArgument(
          "tree is not list-like: a node has more than one child");
    }
    n = kids[0];
  }
  return out;
}

bool IsListLike(const Tree& tree) {
  for (size_t n = 0; n < tree.size(); ++n) {
    if (tree.arity(static_cast<NodeId>(n)) > 1) return false;
  }
  return true;
}

}  // namespace aqua

#include "core/shape.hpp"

#include <algorithm>

namespace san {

int Shape::recompute_sizes() {
  size = 1;
  for (Shape& kid : kids) size += kid.recompute_sizes();
  self_pos = std::clamp(self_pos, 0, static_cast<int>(kids.size()));
  return size;
}

NodeId install_shape(KAryTree& tree, const Shape& shape, NodeId first,
                     RoutingKey lo, RoutingKey hi) {
  const int c = static_cast<int>(shape.kids.size());
  if (c > tree.arity())
    throw TreeError("shape node has more children than the arity allows");
  const bool edge_self = shape.self_pos == 0 || shape.self_pos == c;
  // Every node keeps its own id key (see types.hpp); an interior self
  // position reuses it as the boundary between two children, an edge
  // position spends an extra key slot on it.
  if (c > 0 && edge_self && c + 1 > tree.arity())
    throw TreeError(
        "shape node with full fan-out must place its id between children");

  // Lay out identifiers: children before self_pos, then the node id, then
  // the remaining children.
  NodeId cursor = first;
  std::vector<NodeId> kid_first(c);
  NodeId my_id = kNoNode;
  for (int i = 0; i <= c; ++i) {
    if (i == shape.self_pos) my_id = cursor++;
    if (i < c) {
      kid_first[i] = cursor;
      cursor += shape.kids[i].size;
    }
  }

  // Plan the saturated routing array: one interval per child, an empty
  // interval adjacent to the id key when the id sits at the edge, and
  // synthetic separator pads right above the id key until the node holds
  // exactly arity-1 elements (saturation invariant, see types.hpp).
  // Boundaries between two children are mid-gap separators, except at
  // self_pos where the id key itself is the boundary.
  std::vector<RoutingKey> keys;
  std::vector<int> slot_kid;  // child index per interval, -1 = empty
  if (c == 0) {
    keys.push_back(id_key(my_id));
    slot_kid.assign(2, -1);
  } else {
    if (shape.self_pos == 0) {
      keys.push_back(id_key(my_id));
      slot_kid.push_back(-1);
    }
    for (int i = 0; i < c; ++i) {
      if (i > 0)
        keys.push_back(shape.self_pos == i ? id_key(my_id)
                                           : separator_before(kid_first[i]));
      slot_kid.push_back(i);
    }
    if (shape.self_pos == c) {
      keys.push_back(id_key(my_id));
      slot_kid.push_back(-1);
    }
  }

  // Pads go immediately above the id key: values id_key + 1, +2, ... are
  // all below the next real boundary (>= id_key + kKeySpacing/2) and below
  // any descendant id (>= id_key + kKeySpacing), so each pad splits off an
  // empty interval. Inserting descending values at a fixed position keeps
  // the array sorted.
  const int want = tree.arity() - 1;
  const long pad_count = want - static_cast<long>(keys.size());
  if (pad_count >= kKeySpacing / 2 - 1)
    throw TreeError("arity too large for the key spacing");
  const auto id_pos = static_cast<size_t>(
      std::lower_bound(keys.begin(), keys.end(), id_key(my_id)) -
      keys.begin());
  for (long p = pad_count; p >= 1; --p) {
    keys.insert(keys.begin() + id_pos + 1, id_key(my_id) + p);
    slot_kid.insert(slot_kid.begin() + id_pos + 1, -1);
  }

  // Recurse with each child's final [lo, hi) bounds.
  std::vector<NodeId> children(slot_kid.size(), kNoNode);
  for (size_t s = 0; s < slot_kid.size(); ++s) {
    if (slot_kid[s] < 0) continue;
    const RoutingKey clo = (s == 0) ? lo : keys[s - 1];
    const RoutingKey chi = (s == keys.size()) ? hi : keys[s];
    children[s] =
        install_shape(tree, shape.kids[slot_kid[s]], kid_first[slot_kid[s]],
                      clo, chi);
  }
  tree.install(my_id, std::move(keys), std::move(children), lo, hi);
  return my_id;
}

KAryTree build_from_shape(int k, const Shape& shape) {
  KAryTree tree(k, shape.size);
  NodeId root = install_shape(tree, shape, 1, kKeyMin, kKeyMax);
  tree.set_root(root);
  return tree;
}

Shape make_complete_shape(int n, int k) {
  // Checked before the height search below, which never ends for k < 2.
  if (k < 2) throw TreeError("arity must be >= 2");
  Shape s;
  s.size = n;
  if (n <= 1) return s;
  // Capacity of a full k-ary subtree of height h is (k^{h+1}-1)/(k-1).
  // Find the height of this tree and hand out last-level slots left-first.
  std::int64_t full_below = 1;  // capacity of a full child subtree
  while (full_below * k + 1 < n) full_below = full_below * k + 1;
  // `full_below` is now the largest full-subtree size with k*full_below+1>=n.
  std::int64_t interior = (full_below - 1) / k;  // full size one level lower
  std::int64_t remaining = n - 1;
  std::int64_t last_level = remaining - static_cast<std::int64_t>(k) * interior;
  for (int i = 0; i < k && remaining > 0; ++i) {
    std::int64_t leaves_here =
        std::min<std::int64_t>(last_level, full_below - interior);
    std::int64_t child_n = std::min(remaining, interior + leaves_here);
    last_level -= leaves_here;
    remaining -= child_n;
    if (child_n > 0) s.kids.push_back(make_complete_shape(
        static_cast<int>(child_n), k));
  }
  s.self_pos = static_cast<int>(s.kids.size()) / 2;
  return s;
}

Shape make_path_shape(int n) {
  Shape s;
  s.size = n;
  if (n > 1) {
    s.kids.push_back(make_path_shape(n - 1));
    s.self_pos = 1;
  }
  return s;
}

Shape make_random_shape(int n, int k, std::mt19937_64& rng) {
  Shape s;
  s.size = n;
  if (n <= 1) return s;
  int remaining = n - 1;
  int max_kids = std::min(k, remaining);
  std::uniform_int_distribution<int> kid_count_dist(1, max_kids);
  int c = kid_count_dist(rng);
  // Random composition of `remaining` into c positive parts.
  std::vector<int> parts(c, 1);
  for (int extra = remaining - c; extra > 0; --extra)
    parts[std::uniform_int_distribution<int>(0, c - 1)(rng)]++;
  for (int part : parts) s.kids.push_back(make_random_shape(part, k, rng));
  // A node with full fan-out must place its id between two children (the id
  // key doubles as the boundary); otherwise any position is allowed.
  const int kid_count = static_cast<int>(s.kids.size());
  if (kid_count == k)
    s.self_pos = std::uniform_int_distribution<int>(1, kid_count - 1)(rng);
  else
    s.self_pos = std::uniform_int_distribution<int>(0, kid_count)(rng);
  return s;
}

}  // namespace san

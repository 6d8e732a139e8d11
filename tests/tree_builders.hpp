// Tree builders shared by the test suites.
#pragma once

#include <utility>
#include <vector>

#include "core/karytree.hpp"
#include "core/shape.hpp"

namespace san {

// Builds a *sparse* (unsaturated) valid search tree: every node gets only
// the boundaries its children require, no id key, no pads — the minimal
// representation a third-party system might hand to KArySplayNet.
inline NodeId install_sparse(KAryTree& tree, const Shape& shape, NodeId first,
                             RoutingKey lo, RoutingKey hi) {
  const int c = static_cast<int>(shape.kids.size());
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
  std::vector<RoutingKey> keys;
  std::vector<RoutingKey> bounds = {lo};
  for (int i = 1; i < c; ++i) {
    keys.push_back(separator_before(kid_first[i]));
    bounds.push_back(keys.back());
  }
  bounds.push_back(hi);
  std::vector<NodeId> children;
  if (c == 0) {
    children = {kNoNode};
  } else {
    for (int i = 0; i < c; ++i)
      children.push_back(install_sparse(tree, shape.kids[i], kid_first[i],
                                        bounds[i], bounds[i + 1]));
  }
  tree.install(my_id, std::move(keys), std::move(children), lo, hi);
  return my_id;
}

inline KAryTree build_sparse(int k, Shape shape) {
  shape.recompute_sizes();
  KAryTree tree(k, shape.size);
  tree.set_root(install_sparse(tree, shape, 1, kKeyMin, kKeyMax));
  return tree;
}

}  // namespace san

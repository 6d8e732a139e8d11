// k-semi-splay and k-splay: the paper's novel rotation operations
// (Section 4.1, Figures 3-6).
//
// Both rotations merge the routing arrays and child slots of the nodes on a
// short root-ward path segment into one alternating element/interval
// sequence (every interval holds at most one subtree), then re-partition it:
// each pushed-down node takes a contiguous *block* of at most k-1 internal
// elements that covers its own identifier, and the splayed node keeps the
// remainder. The paper's two k-splay cases (zig-zag analogue: former parent
// and grandparent become siblings; zig-zig analogue: they nest into a chain)
// emerge from whether the second block swallows the first collapsed
// interval. Node identifiers never move between nodes — only routing keys
// and child links are reshuffled — which is exactly the property that
// distinguishes search-tree *networks* from search-tree data structures.
#pragma once

#include "core/karytree.hpp"
#include "core/types.hpp"

namespace san {

/// How many merged elements a pushed-down node keeps.
enum class BlockSizing {
  kBalanced,   ///< split the merged elements roughly evenly
  kGreedyMax,  ///< paper-literal: exactly k-1 consecutive elements when
               ///< available ("take X and k-1 consecutive routing elements
               ///< covering X")
};

/// Where the block sits relative to the pushed-down node's identifier.
enum class BlockPlacement { kCentered, kLeftmost, kRightmost };

struct RotationPolicy {
  BlockSizing sizing = BlockSizing::kBalanced;
  BlockPlacement placement = BlockPlacement::kCentered;
  /// Enables the paper's case 1 / case 2 distinction (prefer sibling
  /// placement, nest only when forced) and the disjointness of a pushed-
  /// down ancestor's block from the splayed node's former children. Exists
  /// only for the ablation bench: disabling it demonstrably destroys the
  /// amortized balance (depth grows toward linear).
  bool case_preference = true;
};

/// Adjustment bookkeeping for one rotation, matching the Section 2 cost
/// model (edges added or removed) plus the unit-per-rotation convention of
/// the experimental section. Counted while the rotation writes its links:
/// every merged child, the pushed-down parent/grandparent included, is
/// installed exactly once, so parent_changes is the number of installed
/// children whose parent differs, plus one for the splayed node. Every
/// such move removes one link and adds one, except that the old root had
/// none to remove and the splayed node has none to add when it becomes the
/// root (which is exactly when the old root moves), so
/// edge_changes = 2 * (parent_changes - [splayed node is the new root]).
struct RotationResult {
  int parent_changes = 0;  ///< nodes whose parent link changed
  int edge_changes = 0;    ///< links removed + links added
};

/// Generalized zig (paper Fig. 3): makes `x` the parent of its current
/// parent. `x` must not be the root. Preserves the search property, every
/// node identifier, and the subtree node set.
RotationResult k_semi_splay(KAryTree& tree, NodeId x,
                            const RotationPolicy& policy = {});

/// Generalized zig-zig / zig-zag (paper Figs. 4-6): makes `x` the topmost
/// of the {grandparent, parent, x} triple. `x` must have a grandparent.
RotationResult k_splay(KAryTree& tree, NodeId x,
                       const RotationPolicy& policy = {});

}  // namespace san

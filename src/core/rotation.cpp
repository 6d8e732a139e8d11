#include "core/rotation.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

namespace san {
namespace {

// Alternating element/interval sequence produced by merging adjacent nodes:
// elems[0..len) and slots[0..len]. slots[i] is the (possibly empty) subtree
// sitting in the interval (elems[i-1], elems[i]) with range sentinels at
// the ends. Every interval holds at most one subtree because each
// participating node's children occupy disjoint consecutive intervals.
//
// The arrays are thread_local and sized once to the arity's high-water mark
// (a k-splay merges at most 3(k-1) elements); splices and block cuts edit
// them in place, so every rotation after the first at a given arity runs
// without touching the heap — the serve() hot path performs zero
// allocations in steady state. No copy of the old links is kept: every
// merged node is installed exactly once, so install()'s count of re-parented
// children is the rotation's move count.
struct Scratch {
  std::vector<RoutingKey> elems;
  std::vector<NodeId> slots;
  int len = 0;  // elements in use; slots holds len + 1
};

Scratch& scratch_for(int k) {
  thread_local Scratch s;
  const size_t cap = 3 * static_cast<size_t>(k - 1);
  if (s.elems.size() < cap) {
    s.elems.resize(cap);
    s.slots.resize(cap + 1);
  }
  return s;
}

void expand(Scratch& m, const KAryTree& tree, NodeId id) {
  const std::span<const RoutingKey> ks = tree.keys(id);
  const std::span<const NodeId> cs = tree.children(id);
  std::copy(ks.begin(), ks.end(), m.elems.data());
  std::copy(cs.begin(), cs.end(), m.slots.data());
  m.len = static_cast<int>(ks.size());
}

// Replaces slot `at` (which must currently hold `child`) with `child`'s own
// keys and child slots.
void splice(Scratch& m, int at, const KAryTree& tree, NodeId child) {
  RoutingKey* const elems = m.elems.data();
  NodeId* const slots = m.slots.data();
  assert(slots[at] == child);
  const std::span<const RoutingKey> ks = tree.keys(child);
  const std::span<const NodeId> cs = tree.children(child);
  const int nk = static_cast<int>(ks.size());
  const size_t tail = static_cast<size_t>(m.len - at);
  // memmove: the ranges overlap, and coincide when `child` is keyless.
  std::memmove(slots + at + 1 + nk, slots + at + 1, tail * sizeof(NodeId));
  std::copy(cs.begin(), cs.end(), slots + at);
  std::memmove(elems + at + nk, elems + at, tail * sizeof(RoutingKey));
  std::copy(ks.begin(), ks.end(), elems + at);
  m.len += nk;
}

// Number of merged elements <= value: the interval holding `value`.
int interval_index(const Scratch& m, RoutingKey value) {
  int j = 0;
  for (int i = 0; i < m.len; ++i) j += m.elems[static_cast<size_t>(i)] <= value;
  return j;
}

// Interval-index constraints for a block choice. `hard_*` marks the slot
// range of the splayed node's former children: a pushed-down ancestor's new
// subtree must stay disjoint from them or the splay potential argument (and
// with it the amortized balance) breaks. `soft` marks the interval whose
// inclusion turns the paper's k-splay case 1 (siblings) into case 2
// (nesting chain); it is taken only when unavoidable.
struct BlockAvoid {
  int hard_begin = 0, hard_end = -1;  // inclusive, empty when begin > end
  int soft = -1;
};

// Carves a contiguous block of `s` internal elements (s+1 intervals) out of
// `m`, covering node `id`'s identifier, and installs it as node `id`, adding
// the number of re-parented children to `moved`. The block is replaced in
// `m` by a single slot holding `id`; the new interval index of that slot is
// returned. `outer_lo`/`outer_hi` bound the whole merged sequence.
//
// Interval semantics are open: a boundary value belongs to neither side
// (key values are globally unique, so no target can be ambiguous). Hence
// "covering" has two cases: if the node's own id key is one of the merged
// elements, the block must *contain that element* — the node ends in the
// routing-based position with its id as one of its own boundaries; if not,
// the id value lies strictly inside an interval and the block must span
// that interval.
int collapse_block(KAryTree& tree, Scratch& m, NodeId id, int s,
                   BlockPlacement placement, RoutingKey outer_lo,
                   RoutingKey outer_hi, int& moved, BlockAvoid avoid = {}) {
  RoutingKey* const elems = m.elems.data();
  NodeId* const slots = m.slots.data();
  const int M = m.len;
  assert(s >= 0 && s <= M);
  const RoutingKey v = id_key(id);
  int j = 0;  // elements < v: the lower_bound position of v
  int own_key_present = 0;
  for (int i = 0; i < M; ++i) {
    j += elems[i] < v;
    own_key_present |= elems[i] == v;
  }
  // With the own id key present the block must take it (so at least one
  // element) and may start no further left than j - s + 1.
  s += own_key_present & (s == 0);
  const int a_min = std::max(0, j - s + own_key_present);
  const int a_max = std::min(j, M - s);
  assert(a_min <= a_max);

  // Score every feasible window (there are at most k of them): hard
  // violations dominate, then soft ones, then the placement preference.
  const int preferred = (placement == BlockPlacement::kLeftmost) ? a_min
                        : (placement == BlockPlacement::kRightmost)
                            ? a_max
                            : std::clamp(j - s / 2, a_min, a_max);
  int a = preferred;
  int best_score = INT32_MAX;
  for (int cand = a_min; cand <= a_max; ++cand) {
    const int lo_iv = cand, hi_iv = cand + s;  // inclusive interval range
    const int hard = (avoid.hard_begin <= avoid.hard_end) &
                     (lo_iv <= avoid.hard_end) & (hi_iv >= avoid.hard_begin);
    const int soft = (avoid.soft >= lo_iv) & (avoid.soft <= hi_iv);
    const int score =
        (4 * hard + 2 * soft) * (M + 1) + std::abs(cand - preferred);
    const bool better = score < best_score;
    best_score = better ? score : best_score;
    a = better ? cand : a;
  }

  const RoutingKey lo = (a == 0) ? outer_lo : elems[a - 1];
  const RoutingKey hi = (a + s == M) ? outer_hi : elems[a + s];
  // install() copies the block out of the scratch before it is cut below.
  moved += tree.install(
      id, std::span<const RoutingKey>(elems + a, static_cast<size_t>(s)),
      std::span<const NodeId>(slots + a, static_cast<size_t>(s) + 1), lo, hi);

  // memmove: the ranges overlap, and coincide when the block is keyless.
  const size_t tail = static_cast<size_t>(M - a - s);
  slots[a] = id;
  std::memmove(slots + a + 1, slots + a + s + 1, tail * sizeof(NodeId));
  std::memmove(elems + a, elems + a + s, tail * sizeof(RoutingKey));
  m.len = M - s;
  return a;
}

int clamp_block_size(int desired, int total_remaining, int budget_after,
                     int k) {
  // The block keeps `size` elements; everything not yet assigned must still
  // fit into nodes holding at most k-1 elements each (`budget_after` counts
  // how many such nodes remain).
  const int lower = std::max(0, total_remaining - budget_after * (k - 1));
  const int upper = std::min(k - 1, total_remaining);
  return std::clamp(desired, lower, upper);
}

// Installs x over what is left of the merged sequence and hangs it where
// the rotated segment's top was. Every merged node, the pushed-down ones
// included, was installed exactly once and x moves too, so the moves are
// the install counts plus one; each move swaps one link for another except
// the old root's (no link before) and x's when it becomes the root (none
// after), and the old root moves exactly when x takes its place.
RotationResult finish(KAryTree& tree, Scratch& m, NodeId x, RoutingKey lo,
                      RoutingKey hi, NodeId top, int top_slot, int moved) {
  const size_t len = static_cast<size_t>(m.len);
  moved += 1 + tree.install(
                   x, std::span<const RoutingKey>(m.elems.data(), len),
                   std::span<const NodeId>(m.slots.data(), len + 1), lo, hi);
  const bool x_is_root = top == kNoNode;
  if (x_is_root)
    tree.set_root(x);
  else
    tree.link(top, top_slot, x);
  return RotationResult{moved, 2 * (moved - static_cast<int>(x_is_root))};
}

}  // namespace

RotationResult k_semi_splay(KAryTree& tree, NodeId x,
                            const RotationPolicy& policy) {
  const NodeId p = tree.parent(x);
  if (p == kNoNode) throw TreeError("k_semi_splay: node is the root");
  const int x_slot = tree.slot_in_parent(x);
  const NodeId g = tree.parent(p);
  const int g_slot = tree.slot_in_parent(p);
  const RoutingKey lo = tree.lo(p);
  const RoutingKey hi = tree.hi(p);
  const int k = tree.arity();

  Scratch& m = scratch_for(k);
  expand(m, tree, p);
  splice(m, x_slot, tree, x);

  const int M = m.len;
  const int desired =
      policy.sizing == BlockSizing::kGreedyMax ? k - 1 : (M + 1) / 2;
  const int s_p = clamp_block_size(desired, M, /*budget_after=*/1, k);
  BlockAvoid p_avoid;
  if (policy.case_preference) p_avoid.soft = interval_index(m, id_key(x));
  int moved = 0;
  collapse_block(tree, m, p, s_p, policy.placement, lo, hi, moved, p_avoid);
  return finish(tree, m, x, lo, hi, g, g_slot, moved);
}

RotationResult k_splay(KAryTree& tree, NodeId x, const RotationPolicy& policy) {
  const NodeId p = tree.parent(x);
  if (p == kNoNode) throw TreeError("k_splay: node is the root");
  const int x_slot = tree.slot_in_parent(x);
  const NodeId g = tree.parent(p);
  if (g == kNoNode) throw TreeError("k_splay: node has no grandparent");
  const int p_slot = tree.slot_in_parent(p);
  const NodeId top = tree.parent(g);
  const int top_slot = tree.slot_in_parent(g);
  const RoutingKey lo = tree.lo(g);
  const RoutingKey hi = tree.hi(g);
  const int k = tree.arity();

  Scratch& m = scratch_for(k);
  expand(m, tree, g);
  splice(m, p_slot, tree, p);
  // After splicing p's arrays at slot p_slot, p's former child slots begin
  // at index p_slot; x sits at offset x_slot within them.
  const int x_begin = p_slot + x_slot;
  const int x_len = tree.num_children(x);
  splice(m, x_begin, tree, x);

  const int M = m.len;
  const bool greedy = policy.sizing == BlockSizing::kGreedyMax;
  const int s_g = clamp_block_size(greedy ? k - 1 : (M + 2) / 3, M,
                                   /*budget_after=*/2, k);
  // g's new subtree must not swallow x's former children (hard constraint:
  // that disjointness is what the access-lemma potential argument rests
  // on), and prefers not to swallow p's identifier interval, which would
  // force p to nest under g (paper case 2, the zig-zig analogue).
  BlockAvoid g_avoid;
  if (policy.case_preference) {
    g_avoid.hard_begin = x_begin;
    g_avoid.hard_end = x_begin + x_len - 1;
    g_avoid.soft = interval_index(m, id_key(p));
  }
  int moved = 0;
  const int g_slot = collapse_block(tree, m, g, s_g, policy.placement, lo, hi,
                                    moved, g_avoid);
  // Re-read the remaining element count: collapse_block may take one extra
  // element when the own-id-key rule forces a non-empty block.
  const int M2 = m.len;
  const int s_p = clamp_block_size(greedy ? k - 1 : (M2 + 1) / 2, M2,
                                   /*budget_after=*/1, k);
  // p prefers to stay g's sibling (case 1); when its identifier interval
  // is swallowed by g's block it chains below (case 2).
  BlockAvoid p_avoid;
  if (policy.case_preference) p_avoid.soft = g_slot;
  collapse_block(tree, m, p, s_p, policy.placement, lo, hi, moved, p_avoid);
  return finish(tree, m, x, lo, hi, top, top_slot, moved);
}

}  // namespace san

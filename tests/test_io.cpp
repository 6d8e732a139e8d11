// Trace / tree serialization round-trips and failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/rotation.hpp"
#include "core/shape.hpp"
#include "io/trace_io.hpp"
#include "io/tree_io.hpp"
#include "workload/generators.hpp"

namespace san {
namespace {

TEST(TraceIo, RoundTrip) {
  Trace t = gen_projector(40, 500, 7);
  std::stringstream buf;
  write_trace(buf, t);
  Trace back = read_trace(buf);
  EXPECT_EQ(back.n, t.n);
  EXPECT_EQ(back.requests, t.requests);
}

TEST(TraceIo, CommentsAndBlankLinesAreSkipped) {
  std::stringstream buf(
      "san-trace v1 5 2\n# a comment\n\n1 2\n# another\n3 4\n");
  Trace t = read_trace(buf);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.requests[0], (Request{1, 2}));
  EXPECT_EQ(t.requests[1], (Request{3, 4}));
}

TEST(TraceIo, RejectsMalformedInput) {
  auto reject = [](const std::string& text) {
    std::stringstream buf(text);
    EXPECT_THROW(read_trace(buf), TreeError) << text;
  };
  reject("bogus v1 5 1\n1 2\n");
  reject("san-trace v2 5 1\n1 2\n");
  reject("san-trace v1 5 2\n1 2\n");          // truncated
  reject("san-trace v1 5 1\n0 2\n");          // id out of range
  reject("san-trace v1 5 1\n1 6\n");          // id out of range
  reject("san-trace v1 5 1\n3 3\n");          // self-loop
  reject("san-trace v1 1 0\n");               // degenerate n
  reject("san-trace v1 5 1\nfoo bar\n");      // garbage
  reject("san-trace v1 5 1\n1 2 junk\n");     // trailing garbage
  reject("san-trace v1 5 1\n1 2 3\n");        // extra numeric field
}

TEST(TraceIo, RejectsHostileHeaderCounts) {
  auto reject = [](const std::string& text) {
    std::stringstream buf(text);
    EXPECT_THROW(read_trace(buf), TreeError) << text;
  };
  // Negative counts must not wrap into huge unsigned values.
  reject("san-trace v1 -4 1\n1 2\n");
  reject("san-trace v1 5 -1\n1 2\n");
  // n beyond the NodeId range would overflow every downstream id array.
  reject("san-trace v1 4294967296 1\n1 2\n");
  // A header claiming far more requests than the body holds must fail on
  // the truncation check, not OOM on reserve().
  reject("san-trace v1 5 123456789012\n1 2\n");
}

TEST(TraceIo, HugeReserveHintDoesNotPreallocate) {
  // The reserve cap: parsing starts (and fails on truncation) without
  // first attempting an m-sized allocation.
  std::stringstream buf("san-trace v1 5 99999999999999\n1 2\n3 4\n");
  try {
    read_trace(buf);
    FAIL() << "expected TreeError";
  } catch (const TreeError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(TraceIo, FileRoundTrip) {
  Trace t = gen_uniform(16, 100, 1);
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.txt";
  write_trace_file(path, t);
  Trace back = read_trace_file(path);
  EXPECT_EQ(back.requests, t.requests);
  EXPECT_THROW(read_trace_file(path + ".does-not-exist"), TreeError);
}

TEST(TreeIo, RoundTripPreservesTopology) {
  for (int k : {2, 3, 7}) {
    KAryTree t = build_from_shape(k, make_complete_shape(60, k));
    // scramble it a little so the file is not the pristine shape
    std::mt19937_64 rng(k);
    for (int i = 0; i < 50; ++i) {
      NodeId x = 1 + static_cast<NodeId>(rng() % 60);
      if (t.node(x).parent != kNoNode) k_semi_splay(t, x);
    }
    std::stringstream buf;
    write_tree(buf, t);
    KAryTree back = read_tree(buf);
    ASSERT_TRUE(back.valid());
    EXPECT_EQ(back.arity(), t.arity());
    EXPECT_EQ(back.size(), t.size());
    EXPECT_EQ(back.root(), t.root());
    for (NodeId id = 1; id <= 60; ++id) {
      EXPECT_EQ(back.node(id).parent, t.node(id).parent);
      EXPECT_TRUE(std::ranges::equal(back.node(id).keys, t.node(id).keys));
      EXPECT_TRUE(
          std::ranges::equal(back.node(id).children, t.node(id).children));
    }
  }
}

TEST(TreeIo, LoadedTreeIsValidated) {
  // A file describing a broken topology (node 2 unreachable) must be
  // rejected even though every record parses.
  std::stringstream buf(
      "san-tree v1 2 2 1\n"
      "1 min max 1 2097152 0 0\n"   // node 1, key id_key(1), no children
      "2 min max 1 4194304 0 0\n");  // node 2 detached
  EXPECT_THROW(read_tree(buf), TreeError);
}

TEST(TreeIo, RejectsBadHeader) {
  std::stringstream buf("san-tree v9 2 2 1\n");
  EXPECT_THROW(read_tree(buf), TreeError);
}

TEST(TreeIo, RejectsHostileHeaderClaims) {
  // Every header field is bounded before any allocation happens on its
  // word: a snapshot restore feeds these bytes straight into read_tree, so
  // a corrupt or hostile file must fail with a TreeError, never an OOM or
  // a bad_alloc from a forged size.
  const char* hostile[] = {
      "san-tree v1 1 4 1\n",                    // arity below 2
      "san-tree v1 -3 4 1\n",                   // negative arity
      "san-tree v1 99999999 4 1\n",             // arity bomb
      "san-tree v1 2 -1 1\n",                   // negative node count
      "san-tree v1 2 999999999999 1\n",         // node-count bomb
      "san-tree v1 2 4 0\n",                    // root below range
      "san-tree v1 2 4 5\n",                    // root above range
      "san-tree v1 2 0 1\n",                    // empty tree must have no root
  };
  for (const char* bytes : hostile) {
    std::stringstream buf(bytes);
    EXPECT_THROW(read_tree(buf), TreeError) << "accepted: " << bytes;
  }
}

TEST(TreeIo, RejectsForgedNodeRecords) {
  // Node id out of range.
  {
    std::stringstream buf("san-tree v1 2 1 1\n9 min max 0 0 0\n");
    EXPECT_THROW(read_tree(buf), TreeError);
  }
  // Duplicate node id: the second record for node 1 must be rejected
  // instead of silently overwriting the first.
  {
    std::stringstream buf(
        "san-tree v1 2 2 1\n"
        "1 min max 1 2097152 2 0\n"
        "1 min max 0 0 0\n");
    EXPECT_THROW(read_tree(buf), TreeError);
  }
  // Forged key count: a node may route over at most arity-1 keys, and the
  // claim is checked before the key vector is allocated.
  {
    std::stringstream buf("san-tree v1 2 1 1\n1 min max 777777777 0 0\n");
    EXPECT_THROW(read_tree(buf), TreeError);
  }
  // Malformed routing key bytes surface as TreeError, not std::stoll's
  // invalid_argument.
  {
    std::stringstream buf("san-tree v1 2 1 1\n1 min max 0 0\n");
    std::stringstream bad("san-tree v1 2 1 1\n1 min garbage 0 0\n");
    EXPECT_NO_THROW(read_tree(buf));
    EXPECT_THROW(read_tree(bad), TreeError);
  }
  // Child id out of range.
  {
    std::stringstream buf("san-tree v1 2 1 1\n1 min max 0 7\n");
    EXPECT_THROW(read_tree(buf), TreeError);
  }
  // Truncated mid-record.
  {
    std::stringstream buf("san-tree v1 2 2 1\n1 min max 1 2097152\n");
    EXPECT_THROW(read_tree(buf), TreeError);
  }
}

TEST(TreeIo, DotExportMentionsEveryNodeAndEdge) {
  KAryTree t = build_from_shape(3, make_complete_shape(13, 3));
  const std::string dot = to_dot(t, "g");
  EXPECT_NE(dot.find("digraph g {"), std::string::npos);
  int edges = 0;
  for (NodeId id = 1; id <= 13; ++id) {
    const std::string node =
        std::string("n").append(std::to_string(id)).append(" [");
    EXPECT_NE(dot.find(node), std::string::npos);
    for (NodeId c : t.node(id).children)
      if (c != kNoNode) ++edges;
  }
  EXPECT_EQ(edges, 12);  // n-1 tree edges
  size_t arrow_count = 0;
  for (size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1))
    ++arrow_count;
  EXPECT_EQ(arrow_count, 12u);
}

}  // namespace
}  // namespace san

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/generators.h"
#include "graph/io.h"

namespace rlcut {
namespace {

Graph MakeDiamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  return std::move(b).Build();
}

TEST(GraphBuilderTest, CountsAndDegrees) {
  Graph g = MakeDiamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(0), 0u);
  EXPECT_EQ(g.OutDegree(3), 0u);
  EXPECT_EQ(g.InDegree(3), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(GraphBuilderTest, NeighborsMatch) {
  Graph g = MakeDiamond();
  auto out0 = g.OutNeighbors(0);
  std::set<VertexId> out_set(out0.begin(), out0.end());
  EXPECT_EQ(out_set, (std::set<VertexId>{1, 2}));
  auto in3 = g.InNeighbors(3);
  std::set<VertexId> in_set(in3.begin(), in3.end());
  EXPECT_EQ(in_set, (std::set<VertexId>{1, 2}));
}

TEST(GraphBuilderTest, EdgeIdsConsistentBetweenCsrs) {
  Graph g = MakeDiamond();
  // Every in-edge id of v must resolve to an edge whose target is v and
  // whose source matches the parallel InNeighbors entry.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto sources = g.InNeighbors(v);
    auto ids = g.InEdgeIds(v);
    ASSERT_EQ(sources.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(g.EdgeTarget(ids[i]), v);
      EXPECT_EQ(g.EdgeSource(ids[i]), sources[i]);
    }
  }
}

TEST(GraphBuilderTest, OutEdgeIdRangeMatchesNeighbors) {
  Graph g = MakeDiamond();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto neighbors = g.OutNeighbors(v);
    const EdgeId begin = g.OutEdgeBegin(v);
    const EdgeId end = g.OutEdgeEnd(v);
    ASSERT_EQ(end - begin, neighbors.size());
    for (EdgeId e = begin; e < end; ++e) {
      EXPECT_EQ(g.EdgeSource(e), v);
      EXPECT_EQ(g.EdgeTarget(e), neighbors[e - begin]);
    }
  }
}

TEST(GraphBuilderTest, GetEdgeRoundTrip) {
  Graph g = MakeDiamond();
  std::multiset<std::pair<VertexId, VertexId>> edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge edge = g.GetEdge(e);
    edges.insert({edge.src, edge.dst});
  }
  EXPECT_EQ(edges.count({0, 1}), 1u);
  EXPECT_EQ(edges.count({2, 3}), 1u);
}

TEST(GraphBuilderTest, DeduplicateAndDropSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);
  b.AddEdge(2, 0);
  b.DeduplicateAndDropSelfLoops();
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(1), 0u);
}

TEST(GraphBuilderTest, MultigraphPreservedWithoutDedup) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(1), 2u);
}

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b(5);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.MaxInDegree(), 0u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_TRUE(g.OutNeighbors(v).empty());
    EXPECT_TRUE(g.InNeighbors(v).empty());
  }
}

void ExpectSameCsr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v <= a.num_vertices(); ++v) {
    EXPECT_EQ(a.view().out_offsets[v], b.view().out_offsets[v]);
    EXPECT_EQ(a.view().in_offsets[v], b.view().in_offsets[v]);
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.view().out_targets[e], b.view().out_targets[e]);
    EXPECT_EQ(a.view().edge_sources[e], b.view().edge_sources[e]);
    EXPECT_EQ(a.view().in_sources[e], b.view().in_sources[e]);
    EXPECT_EQ(a.view().in_edge_ids[e], b.view().in_edge_ids[e]);
  }
}

TEST(GraphBuilderTest, BuildIntoReplacesAViewBackedGraph) {
  // The target wraps another graph's arrays, as a mapped .rlg does.
  auto owner = std::make_shared<Graph>(GenerateRing(16, 2));
  Graph target = Graph::FromView(owner->view(), owner);
  ASSERT_TRUE(target.view_backed());

  std::vector<Edge> edges;
  for (EdgeId e = 0; e < owner->num_edges(); ++e) {
    edges.push_back(owner->GetEdge(e));
  }
  edges.push_back({3, 9});
  edges.push_back({9, 3});
  GraphBuilder into(16);
  into.AddEdges(edges);
  std::move(into).BuildInto(&target);
  GraphBuilder fresh(16);
  fresh.AddEdges(edges);
  const Graph expected = std::move(fresh).Build();

  EXPECT_FALSE(target.view_backed());
  ExpectSameCsr(target, expected);
  EXPECT_EQ(owner->num_edges(), 32u);  // the old backing is untouched
}

TEST(GraphBuilderTest, BuildIntoReusesTheTargetsStorage) {
  Graph target = GenerateRing(64, 4);
  const VertexId* targets_before = target.view().out_targets;
  const uint64_t* offsets_before = target.view().out_offsets;
  // Same vertex set, fewer edges: nothing needs to grow.
  GraphBuilder b(64);
  for (VertexId v = 0; v < 64; ++v) b.AddEdge(v, (v + 7) % 64);
  std::move(b).BuildInto(&target);
  EXPECT_EQ(target.view().out_targets, targets_before);
  EXPECT_EQ(target.view().out_offsets, offsets_before);
  EXPECT_EQ(target.num_edges(), 64u);
  for (VertexId v = 0; v < 64; ++v) {
    ASSERT_EQ(target.OutDegree(v), 1u);
    EXPECT_EQ(target.OutNeighbors(v)[0], (v + 7) % 64);
    EXPECT_EQ(target.InNeighbors((v + 7) % 64)[0], v);
  }
}

TEST(GraphTest, MaxInDegree) {
  Graph g = MakeDiamond();
  EXPECT_EQ(g.MaxInDegree(), 2u);
}

TEST(GraphTest, RingStructure) {
  Graph g = GenerateRing(5, 2);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 10u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(g.OutDegree(v), 2u);
    EXPECT_EQ(g.InDegree(v), 2u);
  }
}

TEST(GraphTest, GridStructure) {
  Graph g = GenerateGrid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12u);
  // Right edges: 3 rows x 3, down edges: 2 x 4.
  EXPECT_EQ(g.num_edges(), 17u);
  EXPECT_EQ(g.OutDegree(0), 2u);   // corner
  EXPECT_EQ(g.OutDegree(11), 0u);  // opposite corner
}

TEST(GraphIoTest, SaveLoadRoundTrip) {
  Graph g = GenerateRing(16, 3);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rlcut_io_test.el").string();
  ASSERT_TRUE(SaveEdgeListFile(g, path).ok());
  Result<Graph> loaded = LoadEdgeListFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(loaded->OutDegree(v), g.OutDegree(v));
    EXPECT_EQ(loaded->InDegree(v), g.InDegree(v));
  }
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileIsIoError) {
  Result<Graph> r = LoadEdgeListFile("/nonexistent/path/graph.el");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(GraphIoTest, MalformedLineIsIoError) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rlcut_io_bad.el").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("# comment\n0 1\nnot numbers\n", f);
    fclose(f);
  }
  Result<Graph> r = LoadEdgeListFile(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(GraphIoTest, CommentsSkipped) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rlcut_io_c.el").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("# header\n0 1\n1 2\n", f);
    fclose(f);
  }
  Result<Graph> r = LoadEdgeListFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_edges(), 2u);
  EXPECT_EQ(r->num_vertices(), 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rlcut

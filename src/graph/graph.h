#ifndef RLCUT_GRAPH_GRAPH_H_
#define RLCUT_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace rlcut {

/// Raw dual-CSR arrays describing a graph without owning them. The
/// storage seam between in-memory graphs (arrays owned by Graph's
/// vectors) and memory-mapped ones (arrays living inside an .rlg file
/// mapping, see graph/rlg.h): consumers always go through Graph's
/// accessors and never learn which backing they are reading.
struct CsrView {
  const uint64_t* out_offsets = nullptr;  // num_vertices + 1
  const VertexId* out_targets = nullptr;  // num_edges
  const VertexId* edge_sources = nullptr;  // num_edges
  const uint64_t* in_offsets = nullptr;  // num_vertices + 1
  const VertexId* in_sources = nullptr;  // num_edges
  const EdgeId* in_edge_ids = nullptr;  // num_edges
  VertexId num_vertices = 0;
  uint64_t num_edges = 0;
};

/// Immutable directed graph in dual-CSR form (both out- and in-adjacency).
///
/// Every directed edge has a stable EdgeId equal to its position in the
/// out-edge CSR; the in-adjacency carries the same EdgeIds so partition
/// state (which places *edges* onto data centers) can be updated from
/// either endpoint. Build via GraphBuilder, or wrap externally owned
/// arrays (a memory-mapped .rlg file) with FromView. All accessors read
/// through one CsrView regardless of backing, so the evaluation hot
/// paths are identical for owned and mapped graphs.
class Graph {
 public:
  Graph() = default;

  // Copyable (tests clone small graphs) and movable. The view pointers
  // must be re-bound to the destination's own vectors after every copy
  // or move; mapped graphs share the backing instead.
  Graph(const Graph& other) { *this = other; }
  Graph& operator=(const Graph& other) {
    if (this == &other) return *this;
    out_offsets_ = other.out_offsets_;
    out_targets_ = other.out_targets_;
    edge_sources_ = other.edge_sources_;
    in_offsets_ = other.in_offsets_;
    in_sources_ = other.in_sources_;
    in_edge_ids_ = other.in_edge_ids_;
    backing_ = other.backing_;
    view_ = other.view_;
    if (!out_offsets_.empty()) BindViewToOwned();
    return *this;
  }
  Graph(Graph&& other) noexcept { *this = std::move(other); }
  Graph& operator=(Graph&& other) noexcept {
    if (this == &other) return *this;
    out_offsets_ = std::move(other.out_offsets_);
    out_targets_ = std::move(other.out_targets_);
    edge_sources_ = std::move(other.edge_sources_);
    in_offsets_ = std::move(other.in_offsets_);
    in_sources_ = std::move(other.in_sources_);
    in_edge_ids_ = std::move(other.in_edge_ids_);
    backing_ = std::move(other.backing_);
    view_ = other.view_;
    other.view_ = CsrView{};
    if (!out_offsets_.empty()) BindViewToOwned();
    return *this;
  }

  /// Wraps externally owned CSR arrays as a Graph without copying.
  /// `backing` is held for the Graph's lifetime (and the lifetime of
  /// every copy) to keep the arrays alive — for a mapped .rlg file it
  /// is the mapping handle. The arrays must describe a structurally
  /// valid dual CSR; loaders of untrusted files must validate before
  /// wrapping (see ValidateRlg in graph/rlg.h).
  static Graph FromView(const CsrView& view,
                        std::shared_ptr<const void> backing) {
    Graph g;
    g.view_ = view;
    g.backing_ = std::move(backing);
    return g;
  }

  /// True when the CSR arrays live in external backing (e.g. an mmap)
  /// rather than this Graph's own vectors.
  bool view_backed() const { return backing_ != nullptr; }

  /// The raw arrays (whichever backing they live in).
  const CsrView& view() const { return view_; }

  VertexId num_vertices() const { return view_.num_vertices; }
  uint64_t num_edges() const { return view_.num_edges; }

  uint32_t OutDegree(VertexId v) const {
    return static_cast<uint32_t>(view_.out_offsets[v + 1] -
                                 view_.out_offsets[v]);
  }
  uint32_t InDegree(VertexId v) const {
    return static_cast<uint32_t>(view_.in_offsets[v + 1] -
                                 view_.in_offsets[v]);
  }
  uint32_t Degree(VertexId v) const { return OutDegree(v) + InDegree(v); }

  /// Targets of v's out-edges.
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {view_.out_targets + view_.out_offsets[v],
            view_.out_targets + view_.out_offsets[v + 1]};
  }

  /// Sources of v's in-edges.
  std::span<const VertexId> InNeighbors(VertexId v) const {
    return {view_.in_sources + view_.in_offsets[v],
            view_.in_sources + view_.in_offsets[v + 1]};
  }

  /// EdgeIds of v's out-edges: the k-th out-edge of v has EdgeId
  /// OutEdgeBegin(v) + k and target OutNeighbors(v)[k].
  EdgeId OutEdgeBegin(VertexId v) const { return view_.out_offsets[v]; }
  EdgeId OutEdgeEnd(VertexId v) const { return view_.out_offsets[v + 1]; }

  /// EdgeIds of v's in-edges, parallel to InNeighbors(v).
  std::span<const EdgeId> InEdgeIds(VertexId v) const {
    return {view_.in_edge_ids + view_.in_offsets[v],
            view_.in_edge_ids + view_.in_offsets[v + 1]};
  }

  /// Endpoints of edge `e`.
  VertexId EdgeSource(EdgeId e) const { return view_.edge_sources[e]; }
  VertexId EdgeTarget(EdgeId e) const { return view_.out_targets[e]; }

  /// All edges in EdgeId order (src computed from the CSR).
  Edge GetEdge(EdgeId e) const { return {EdgeSource(e), EdgeTarget(e)}; }

  /// Maximum in-degree over all vertices (0 for an empty graph).
  uint32_t MaxInDegree() const;

 private:
  friend class GraphBuilder;

  // Points view_ at this Graph's own vectors.
  void BindViewToOwned() {
    view_.out_offsets = out_offsets_.data();
    view_.out_targets = out_targets_.data();
    view_.edge_sources = edge_sources_.data();
    view_.in_offsets = in_offsets_.data();
    view_.in_sources = in_sources_.data();
    view_.in_edge_ids = in_edge_ids_.data();
    view_.num_vertices = static_cast<VertexId>(
        out_offsets_.empty() ? 0 : out_offsets_.size() - 1);
    view_.num_edges = out_targets_.size();
  }

  // Owned storage for built graphs; all empty when view-backed.
  // CSR over out-edges; EdgeId == index into out_targets_.
  std::vector<uint64_t> out_offsets_;  // |V|+1
  std::vector<VertexId> out_targets_;  // |E|
  // Reverse map EdgeId -> source vertex (kept explicit: O(1) lookups in
  // partition-state updates beat binary-searching out_offsets_).
  std::vector<VertexId> edge_sources_;  // |E|
  // CSR over in-edges, mirroring EdgeIds of the out-CSR.
  std::vector<uint64_t> in_offsets_;  // |V|+1
  std::vector<VertexId> in_sources_;  // |E|
  std::vector<EdgeId> in_edge_ids_;   // |E|

  // Keep-alive handle for view-backed graphs (e.g. the file mapping).
  std::shared_ptr<const void> backing_;

  // The arrays every accessor reads, regardless of backing.
  CsrView view_;
};

/// Accumulates edges then builds the dual-CSR Graph.
///
///   GraphBuilder b(num_vertices);
///   b.AddEdge(0, 1);
///   Graph g = std::move(b).Build();
class GraphBuilder {
 public:
  /// `num_vertices` fixes the vertex id space [0, num_vertices).
  explicit GraphBuilder(VertexId num_vertices);

  /// Appends a directed edge; endpoints must be < num_vertices.
  void AddEdge(VertexId src, VertexId dst);
  void AddEdge(const Edge& e) { AddEdge(e.src, e.dst); }

  /// Appends all edges from a list.
  void AddEdges(const std::vector<Edge>& edges);

  /// Pre-sizes the edge accumulator. Streaming loaders that know the
  /// edge count up front (two-pass file loads) reserve once instead of
  /// growing geometrically.
  void Reserve(uint64_t num_edges) { edges_.reserve(num_edges); }

  uint64_t num_edges() const { return edges_.size(); }
  VertexId num_vertices() const { return num_vertices_; }

  /// Removes exact duplicate (src,dst) pairs and self-loops. Optional:
  /// generators may legitimately produce multigraphs.
  void DeduplicateAndDropSelfLoops();

  /// Builds the graph. Consumes the builder. The edge accumulator is
  /// released as soon as the out-CSR is fixed (the in-CSR is derived
  /// from the out-CSR), which caps peak memory at roughly the final
  /// graph plus one edge array instead of plus the full accumulator.
  Graph Build() && {
    Graph g;
    std::move(*this).BuildInto(&g);
    return g;
  }

  /// Builds the graph into `*target` in place, replacing its contents:
  /// the target's owned arrays are reused (no reallocation unless they
  /// must grow) and any view backing is dropped. The Graph object keeps
  /// its address, so pointers to it (a PartitionState's) stay valid;
  /// see PartitionState::RefreshGraph. Consumes the builder, releasing
  /// the accumulator as Build does.
  void BuildInto(Graph* target) &&;

 private:
  VertexId num_vertices_;
  std::vector<Edge> edges_;
};

}  // namespace rlcut

#endif  // RLCUT_GRAPH_GRAPH_H_

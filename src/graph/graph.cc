#include "graph/graph.h"

#include <algorithm>

#include "common/logging.h"

namespace rlcut {

uint32_t Graph::MaxInDegree() const {
  uint32_t max_deg = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    max_deg = std::max(max_deg, InDegree(v));
  }
  return max_deg;
}

GraphBuilder::GraphBuilder(VertexId num_vertices)
    : num_vertices_(num_vertices) {}

void GraphBuilder::AddEdge(VertexId src, VertexId dst) {
  RLCUT_DCHECK(src < num_vertices_);
  RLCUT_DCHECK(dst < num_vertices_);
  edges_.push_back({src, dst});
}

void GraphBuilder::AddEdges(const std::vector<Edge>& edges) {
  edges_.insert(edges_.end(), edges.begin(), edges.end());
}

void GraphBuilder::DeduplicateAndDropSelfLoops() {
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                              [](const Edge& e) { return e.src == e.dst; }),
               edges_.end());
}

void GraphBuilder::BuildInto(Graph* target) && {
  Graph& g = *target;
  g.backing_.reset();
  const VertexId n = num_vertices_;
  const uint64_t m = edges_.size();

  // Out-CSR via counting sort by source; this fixes EdgeIds.
  g.out_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) ++g.out_offsets_[e.src + 1];
  for (VertexId v = 0; v < n; ++v) {
    g.out_offsets_[v + 1] += g.out_offsets_[v];
  }
  g.out_targets_.resize(m);
  g.edge_sources_.resize(m);
  {
    std::vector<uint64_t> cursor(g.out_offsets_.begin(),
                                 g.out_offsets_.end() - 1);
    for (const Edge& e : edges_) {
      const uint64_t pos = cursor[e.src]++;
      g.out_targets_[pos] = e.dst;
      g.edge_sources_[pos] = e.src;
    }
  }

  // The accumulator is no longer needed: the in-CSR below is derived
  // entirely from the out-CSR arrays. Freeing it here cuts peak RSS by
  // one Edge array on large builds.
  edges_.clear();
  edges_.shrink_to_fit();

  // In-CSR carrying matching EdgeIds.
  g.in_offsets_.assign(n + 1, 0);
  for (EdgeId e = 0; e < m; ++e) ++g.in_offsets_[g.out_targets_[e] + 1];
  for (VertexId v = 0; v < n; ++v) {
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }
  g.in_sources_.resize(m);
  g.in_edge_ids_.resize(m);
  {
    std::vector<uint64_t> cursor(g.in_offsets_.begin(),
                                 g.in_offsets_.end() - 1);
    for (EdgeId e = 0; e < m; ++e) {
      const VertexId dst = g.out_targets_[e];
      const uint64_t pos = cursor[dst]++;
      g.in_sources_[pos] = g.edge_sources_[e];
      g.in_edge_ids_[pos] = e;
    }
  }

  g.BindViewToOwned();
}

}  // namespace rlcut

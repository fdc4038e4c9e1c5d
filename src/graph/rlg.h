#ifndef RLCUT_GRAPH_RLG_H_
#define RLCUT_GRAPH_RLG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/transform.h"

namespace rlcut {

/// On-disk dual-CSR graph format (".rlg") for out-of-core training.
///
/// Layout (all fields host-endian, like every rlcut binary format —
/// these are single-machine files, not interchange):
///
///   offset   0  magic "RLCUTRLG" (8 bytes)
///   offset   8  uint32 version (currently 1)
///   offset  12  uint32 flags (bit 0: orig-ids section present)
///   offset  16  uint64 num_vertices
///   offset  24  uint64 num_edges
///   offset  32  uint64 section_offsets[7] (byte offset from file start;
///               0 = section absent):
///                 [0] out_offsets   (num_vertices + 1) x uint64
///                 [1] out_targets   num_edges x uint32 VertexId
///                 [2] edge_sources  num_edges x uint32 VertexId
///                 [3] in_offsets    (num_vertices + 1) x uint64
///                 [4] in_sources    num_edges x uint32 VertexId
///                 [5] in_edge_ids   num_edges x uint64 EdgeId
///                 [6] orig_ids      num_vertices x uint32 (optional)
///   offset  88  uint64 declared file size (truncation check)
///   offset  96  uint64 FNV-1a checksum of header bytes [0, 96)
///   offset 104  zero padding to 128
///
/// Sections are 64-byte aligned. The checksum covers the header only:
/// a whole-file checksum would force reading every page up front, which
/// is exactly what a memory-mapped loader exists to avoid. Deep
/// structural validation of the arrays is available separately
/// (MmapGraph::ValidateFully) for untrusted files.
///
/// The optional orig-ids section records, for each (possibly
/// renumbered) vertex, its id in the originally loaded graph. A file
/// written in a locality order carries it so plans trained on the
/// mapped graph can be published in original ids.

inline constexpr char kRlgMagic[8] = {'R', 'L', 'C', 'U', 'T',
                                      'R', 'L', 'G'};
inline constexpr uint32_t kRlgVersion = 1;
inline constexpr uint32_t kRlgFlagHasOrigIds = 1u << 0;
inline constexpr size_t kRlgHeaderSize = 128;
inline constexpr size_t kRlgSectionAlign = 64;

/// Writes `graph` to `path` in .rlg format, optionally relabeled by
/// `perm` (nullptr = keep ids). The output file is pre-sized and
/// memory-mapped read-write, so heap overhead is O(num_vertices)
/// regardless of edge count — the kernel page cache absorbs the
/// E-sized arrays. `orig_of_new` (size num_vertices) populates the
/// orig-ids section; pass an empty span to omit it. When `perm` is
/// given and `orig_of_new` is empty, perm->old_of_new is recorded
/// automatically so the mapping back to input ids is never lost.
/// Writes to a temp file and renames into place.
Status WriteRlgFile(const Graph& graph, const VertexPermutation* perm,
                    std::span<const VertexId> orig_of_new,
                    const std::string& path);

/// Convenience: writes `graph` as-is with no orig-ids section.
Status SaveRlgGraph(const Graph& graph, const std::string& path);

/// Streams a SNAP-style text edge list into an .rlg file with
/// O(num_vertices) heap: three passes over the text (count; degree
/// histograms straight into the mapped offset arrays; scatter the
/// edges through cursors) plus one pass over the mapped out-CSR to
/// derive the in-CSR. Id limits match LoadEdgeListFile.
Status ConvertEdgeListToRlg(const std::string& edge_list_path,
                            const std::string& rlg_path);

/// Owns one mmap'd .rlg file (and its optional residency governor);
/// shared by every Graph wrapping views into it.
class RlgMapping {
 public:
  ~RlgMapping();
  RlgMapping(const RlgMapping&) = delete;
  RlgMapping& operator=(const RlgMapping&) = delete;

  const uint8_t* data() const { return base_; }
  size_t size() const { return len_; }

  /// Drops all resident pages of the mapping (madvise MADV_DONTNEED).
  /// Safe for a read-only file mapping: pages refault from the file on
  /// the next access.
  void DropPages() const;

  /// Starts a background thread that samples this process's resident
  /// set every few milliseconds and calls DropPages() whenever it
  /// exceeds `budget_bytes`. Crude but effective back-pressure for
  /// out-of-core runs; the hot header pages refault immediately.
  void StartGovernor(size_t budget_bytes);

  /// Times the governor dropped pages so far.
  uint64_t governor_drops() const;

 private:
  friend class MmapGraph;
  RlgMapping(uint8_t* base, size_t len);

  uint8_t* base_ = nullptr;
  size_t len_ = 0;
  struct Governor;
  std::unique_ptr<Governor> governor_;
};

/// Memory-mapped .rlg loader. Open() validates the header (magic,
/// version, checksum, declared size vs real size, section bounds and
/// alignment, orig-ids bijection) without touching the edge arrays;
/// ValidateFully() walks them. graph() returns a view-backed Graph that
/// shares the mapping — copy it freely, the file stays mapped until the
/// last copy dies.
class MmapGraph {
 public:
  struct Options {
    /// Advise the kernel access will be random (disables readahead).
    /// The trainer's vertex visits are effectively random, and
    /// readahead would blow the residency budget.
    bool random_access = true;
    /// O(V+E) structural validation of the mapped arrays on open.
    bool validate_structure = false;
    /// When non-zero, start a residency governor keeping this
    /// process's RSS near the budget by dropping mapped pages.
    size_t budget_bytes = 0;
  };

  static Result<MmapGraph> Open(const std::string& path,
                                const Options& options);
  static Result<MmapGraph> Open(const std::string& path) {
    return Open(path, Options{});
  }

  const Graph& graph() const { return graph_; }
  bool has_orig_ids() const { return orig_ids_ != nullptr; }
  /// Original id per (current) vertex id; empty when the section is
  /// absent (ids are already original).
  std::span<const VertexId> orig_of_new() const {
    if (orig_ids_ == nullptr) return {};
    return {orig_ids_, graph_.num_vertices()};
  }
  uint64_t mapped_bytes() const { return mapping_->size(); }
  const std::shared_ptr<RlgMapping>& mapping() const { return mapping_; }

  /// Deep structural validation of the mapped arrays: offsets monotone
  /// and bounded, targets/sources in range, in-CSR EdgeIds consistent
  /// with the out-CSR. O(V+E); reads every page once.
  Status ValidateFully() const;

 private:
  std::shared_ptr<RlgMapping> mapping_;
  Graph graph_;
  const VertexId* orig_ids_ = nullptr;
};

/// The storage seam the tools program against: a graph that is either
/// owned in memory or memory-mapped from an .rlg file. Everything
/// downstream (PartitionState, trainer, sessions) takes
/// `const Graph*` and cannot tell the difference.
class GraphStore {
 public:
  GraphStore() = default;

  static GraphStore InMemory(Graph graph) {
    GraphStore store;
    store.graph_ = std::move(graph);
    return store;
  }

  static Result<GraphStore> OpenMapped(const std::string& path,
                                       const MmapGraph::Options& options = {});

  const Graph& graph() const { return graph_; }
  bool mapped() const { return mmap_.has_value(); }
  /// Original id per vertex: from the .rlg orig-ids section when
  /// mapped, empty otherwise (ids are already original).
  std::span<const VertexId> orig_of_new() const {
    return mmap_.has_value() ? mmap_->orig_of_new()
                             : std::span<const VertexId>{};
  }
  const MmapGraph* mmap_graph() const {
    return mmap_.has_value() ? &*mmap_ : nullptr;
  }

 private:
  Graph graph_;
  std::optional<MmapGraph> mmap_;
};

/// In-memory footprint of the dual-CSR arrays for a graph of this
/// shape — what an owned Graph would allocate, and the baseline the
/// out-of-core RSS gate compares against.
uint64_t DualCsrBytes(VertexId num_vertices, uint64_t num_edges);

/// Current resident set size of this process in bytes (Linux
/// /proc/self/statm; 0 if unavailable).
uint64_t CurrentRssBytes();

/// Peak resident set size of this process in bytes (getrusage
/// ru_maxrss; 0 if unavailable). Note: the OS never lowers this — it
/// records the high-water mark including any earlier in-memory phase.
uint64_t PeakRssBytes();

}  // namespace rlcut

#endif  // RLCUT_GRAPH_RLG_H_

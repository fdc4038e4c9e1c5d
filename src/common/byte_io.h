#ifndef RLCUT_COMMON_BYTE_IO_H_
#define RLCUT_COMMON_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace rlcut {

/// Appends host-endian fixed-width values to a byte buffer. The encoded
/// bytes are single-machine pause/resume files, not an interchange
/// format, so host endianness is fine (documented where used).
class ByteWriter {
 public:
  template <typename T>
  void Write(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t offset = bytes_.size();
    bytes_.resize(offset + sizeof(T));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }

  template <typename T>
  void WriteVector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write<uint64_t>(values.size());
    // memcpy with an empty vector's null data() is undefined.
    if (values.empty()) return;
    const size_t offset = bytes_.size();
    bytes_.resize(offset + values.size() * sizeof(T));
    std::memcpy(bytes_.data() + offset, values.data(),
                values.size() * sizeof(T));
  }

  /// Length-prefixed byte string (DC names, method names, ...).
  void WriteString(const std::string& value) {
    Write<uint64_t>(value.size());
    bytes_.append(value);
  }

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

/// Reads the writer's output back with bounds checking; any overrun
/// flags the payload as truncated. Every count decoded from the payload
/// is bounded by remaining() before any resize: a truncated or
/// bit-flipped file must produce a clean corrupt-file Status, never a
/// multi-GB allocation.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (offset_ + sizeof(T) > bytes_.size()) return false;
    std::memcpy(value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return true;
  }

  template <typename T>
  bool ReadVector(std::vector<T>* values) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    if (!Read(&count)) return false;
    // Guard the multiplication: a corrupted count must not overflow.
    if (count > (bytes_.size() - offset_) / sizeof(T)) return false;
    values->resize(count);
    if (count == 0) return true;
    std::memcpy(values->data(), bytes_.data() + offset_,
                count * sizeof(T));
    offset_ += count * sizeof(T);
    return true;
  }

  bool ReadString(std::string* value) {
    uint64_t count = 0;
    if (!Read(&count)) return false;
    if (count > bytes_.size() - offset_) return false;
    value->assign(bytes_.data() + offset_, count);
    offset_ += count;
    return true;
  }

  bool exhausted() const { return offset_ == bytes_.size(); }

  /// Bytes left to read; bound every decoded count by this.
  size_t remaining() const { return bytes_.size() - offset_; }

 private:
  const std::string& bytes_;
  size_t offset_ = 0;
};

/// FNV-1a over the payload; the envelope's integrity check.
uint64_t Fnv1a64(const std::string& bytes);

/// Wraps `payload` in the common rlcut binary-file envelope:
///   8-byte magic | uint32 version | uint64 payload size | payload |
///   uint64 FNV-1a checksum of the payload.
/// `magic` must be exactly 8 bytes.
std::string WrapEnvelope(const char* magic, uint32_t version,
                         const std::string& payload);

/// Reads and verifies an envelope file written by WrapEnvelope +
/// AtomicWriteFile, returning the payload. `kind` names the file type in
/// error messages ("checkpoint" -> "not an rlcut checkpoint file"). The
/// declared payload size is bounded by the real file size before any
/// allocation.
Result<std::string> ReadEnvelopeFile(const std::string& path,
                                     const char* magic,
                                     uint32_t expected_version,
                                     const std::string& kind);

/// Same, accepting any version in [min_version, max_version] (for file
/// formats that kept decode support for older revisions). The version
/// actually found is returned through `version_out` so the caller can
/// branch its payload decoding on it.
Result<std::string> ReadEnvelopeFile(const std::string& path,
                                     const char* magic,
                                     uint32_t min_version,
                                     uint32_t max_version,
                                     const std::string& kind,
                                     uint32_t* version_out);

}  // namespace rlcut

#endif  // RLCUT_COMMON_BYTE_IO_H_

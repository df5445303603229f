#ifndef AUTOGLOBE_COMMON_BYTES_H_
#define AUTOGLOBE_COMMON_BYTES_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace autoglobe {

/// FNV-1a's offset basis: the hash of no bytes.
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// FNV-1a over `data` — the checksum guarding every snapshot section.
/// Not cryptographic; it detects the torn writes and bit flips the
/// persistence layer cares about. `seed` continues an earlier hash, so
/// Fnv1a64(b, Fnv1a64(a)) == Fnv1a64(a + b) and a long input can be
/// hashed chunk by chunk.
uint64_t Fnv1a64(std::string_view data, uint64_t seed = kFnv1a64Basis);

/// Append-only little-endian byte encoder for snapshot sections.
/// Fixed-width integers, doubles as IEEE bit patterns (restores are
/// bit-exact, never reparsed through decimal), strings with a u32
/// length prefix. The encoding carries no type tags: writer and
/// reader are versioned together through the snapshot format version.
class ByteWriter {
 public:
  void U8(uint8_t v) { data_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Str(std::string_view s);
  /// Raw bytes with no length prefix (caller encodes the size).
  void Raw(const void* bytes, size_t n);
  /// Reserves room for `n` more bytes, so writers that know their
  /// encoded size grow the buffer once. An empty writer releases its
  /// old buffer before growing: it has nothing to copy, so the old and
  /// the new never coexist.
  void Reserve(size_t n) {
    if (data_.empty() && data_.capacity() < n) std::string().swap(data_);
    data_.reserve(data_.size() + n);
  }
  /// Drops the bytes but keeps the capacity, so one writer can encode
  /// section after section into the same buffer.
  void Clear() { data_.clear(); }

  const std::string& data() const { return data_; }
  std::string Take() { return std::move(data_); }

 private:
  std::string data_;
};

/// Bounds-checked decoder for ByteWriter output. Every read returns a
/// Status error instead of walking past the end, so a truncated
/// section surfaces as a descriptive failure, never as garbage state.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int64_t> I64();
  Result<double> F64();
  Result<std::string> Str();
  /// Reads exactly `n` raw bytes.
  Status Raw(void* out, size_t n);

  /// Errors unless `count` elements of at least `min_element_bytes`
  /// each fit in the unread bytes. Every count-prefixed read checks its
  /// count here before sizing a container from it, so a corrupt count
  /// fails as a ParseError instead of an allocation failure.
  Status CheckCount(uint64_t count, size_t min_element_bytes) const;

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// Errors unless every byte has been consumed — catches encoder/
  /// decoder drift within a section.
  Status ExpectEnd() const;

 private:
  Status Need(size_t n) const;

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace autoglobe

#endif  // AUTOGLOBE_COMMON_BYTES_H_

#ifndef AUTOGLOBE_COMMON_BYTES_H_
#define AUTOGLOBE_COMMON_BYTES_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace autoglobe {

/// FNV-1a over `data` — the checksum guarding every snapshot section.
/// Not cryptographic; it detects the torn writes and bit flips the
/// persistence layer cares about.
uint64_t Fnv1a64(std::string_view data);

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
  /// encoded size grow the buffer once.
  void Reserve(size_t n) { data_.reserve(data_.size() + n); }

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

#include "common/bytes.h"

#include <algorithm>
#include <cstring>

#include "common/strings.h"

namespace autoglobe {

uint64_t Fnv1a64(std::string_view data, uint64_t seed) {
  uint64_t hash = seed;
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void ByteWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    data_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void ByteWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    data_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void ByteWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  data_.append(s.data(), s.size());
}

void ByteWriter::Raw(const void* bytes, size_t n) {
  data_.append(static_cast<const char*>(bytes), n);
}

Status ByteReader::Need(size_t n) const {
  if (remaining() < n) {
    return Status::ParseError(StrFormat(
        "truncated section: need %zu byte(s) at offset %zu, have %zu", n,
        pos_, remaining()));
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::U8() {
  AG_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> ByteReader::U32() {
  AG_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::U64() {
  AG_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::I64() {
  AG_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::F64() {
  AG_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> ByteReader::Str() {
  AG_ASSIGN_OR_RETURN(uint32_t n, U32());
  AG_RETURN_IF_ERROR(Need(n));
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

Status ByteReader::Raw(void* out, size_t n) {
  AG_RETURN_IF_ERROR(Need(n));
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::CheckCount(uint64_t count,
                              size_t min_element_bytes) const {
  size_t fit = remaining() / std::max<size_t>(min_element_bytes, 1);
  if (count > fit) {
    return Status::ParseError(StrFormat(
        "corrupt count %llu at offset %zu: %zu byte(s) left hold at most "
        "%zu element(s) of %zu byte(s)",
        static_cast<unsigned long long>(count), pos_, remaining(), fit,
        min_element_bytes));
  }
  return Status::OK();
}

Status ByteReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::ParseError(StrFormat(
        "section has %zu trailing byte(s) past offset %zu", remaining(),
        pos_));
  }
  return Status::OK();
}

}  // namespace autoglobe

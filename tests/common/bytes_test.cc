#include "common/bytes.h"

#include <gtest/gtest.h>

namespace autoglobe {
namespace {

TEST(ByteReaderTest, CheckCountBoundsByTheUnreadBytes) {
  ByteWriter w;
  w.U64(3);
  for (int i = 0; i < 3; ++i) w.F64(1.5);
  ByteReader r(w.data());
  ASSERT_TRUE(r.U64().ok());
  EXPECT_TRUE(r.CheckCount(3, sizeof(double)).ok());
  EXPECT_TRUE(r.CheckCount(24, 1).ok());
  EXPECT_EQ(r.CheckCount(4, sizeof(double)).code(), StatusCode::kParseError);
  EXPECT_EQ(r.CheckCount(uint64_t{1} << 61, sizeof(double)).code(),
            StatusCode::kParseError);
  // A zero-byte element bound counts as one byte.
  EXPECT_EQ(r.CheckCount(25, 0).code(), StatusCode::kParseError);
  EXPECT_TRUE(r.CheckCount(0, sizeof(double)).ok());
}

TEST(Fnv1a64Test, SeedContinuesTheHash) {
  const std::string whole = "header and table, then the payloads";
  for (size_t cut = 0; cut <= whole.size(); cut += 7) {
    EXPECT_EQ(Fnv1a64(std::string_view(whole).substr(cut),
                      Fnv1a64(std::string_view(whole).substr(0, cut))),
              Fnv1a64(whole))
        << "cut at " << cut;
  }
  EXPECT_EQ(Fnv1a64(""), kFnv1a64Basis);
}

}  // namespace
}  // namespace autoglobe

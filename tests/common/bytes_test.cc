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

}  // namespace
}  // namespace autoglobe

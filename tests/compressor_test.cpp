// Tests for the full compressors (bzip2-style, DMC, LZW) and the
// JPEG encoder: exact round trips for the lossless ones, PSNR and
// quality monotonicity for JPEG, compression-ratio sanity, and malformed
// input rejection.
#include <gtest/gtest.h>

#include "workloads/bzip2ish.hpp"
#include "workloads/data_gen.hpp"
#include "workloads/dmc.hpp"
#include "workloads/jpeg_enc.hpp"
#include "workloads/lzw.hpp"

namespace eewa::wl {
namespace {

using Bytes = std::vector<std::uint8_t>;

// ----------------------------------------------- lossless sweep fixture --

struct LosslessCase {
  const char* generator;
  std::size_t size;
  std::uint64_t seed;
};

class LosslessRoundTrip : public ::testing::TestWithParam<LosslessCase> {
 protected:
  Bytes input() const {
    const auto& p = GetParam();
    const std::string g = p.generator;
    if (g == "text") return markov_text(p.size, p.seed);
    if (g == "skewed") return skewed_bytes(p.size, p.seed);
    if (g == "random") return random_bytes(p.size, p.seed);
    if (g == "zeros") return Bytes(p.size, 0);
    if (g == "empty") return {};
    return {};
  }
};

TEST_P(LosslessRoundTrip, Bzip2ish) {
  const auto data = input();
  EXPECT_EQ(bzip2ish_decompress_block(bzip2ish_compress_block(data)), data);
}

TEST_P(LosslessRoundTrip, Dmc) {
  const auto data = input();
  EXPECT_EQ(dmc_decompress_block(dmc_compress_block(data)), data);
}

TEST_P(LosslessRoundTrip, Lzw) {
  const auto data = input();
  EXPECT_EQ(lzw_decompress(lzw_compress(data)), data);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LosslessRoundTrip,
    ::testing::Values(LosslessCase{"empty", 0, 0},
                      LosslessCase{"text", 1, 1},
                      LosslessCase{"text", 500, 2},
                      LosslessCase{"text", 8192, 3},
                      LosslessCase{"skewed", 3000, 4},
                      LosslessCase{"random", 2048, 5},
                      LosslessCase{"zeros", 4096, 6},
                      LosslessCase{"text", 65536, 7}),
    [](const auto& info) {
      return std::string(info.param.generator) + "_" +
             std::to_string(info.param.size);
    });

// ------------------------------------------------ compression behaviour --

TEST(Bzip2ish, CompressesTextWell) {
  // Our Markov corpus carries more entropy than real English (~4 bits
  // per byte), so expect a solid but not bzip2-on-prose ratio.
  const auto data = markov_text(32768, 11);
  const auto enc = bzip2ish_compress_block(data);
  EXPECT_LT(enc.size(), data.size() * 3 / 4);
}

TEST(Dmc, CompressesTextAndAdaptsModel) {
  const auto data = markov_text(16384, 13);
  const auto enc = dmc_compress_block(data);
  EXPECT_LT(enc.size(), data.size());
}

TEST(Dmc, ModelResetRoundTripsPastNodeCap) {
  // A tiny node cap forces several model resets mid-stream; encoder and
  // decoder must reset at identical bit positions.
  DmcOptions opt;
  opt.max_nodes = 512;
  const auto data = markov_text(20000, 14);
  EXPECT_EQ(dmc_decompress_block(dmc_compress_block(data, opt), opt), data);
}

TEST(Dmc, RandomDataDoesNotExplode) {
  const auto data = random_bytes(4096, 15);
  const auto enc = dmc_compress_block(data);
  EXPECT_LT(enc.size(), data.size() * 2);
  EXPECT_EQ(dmc_decompress_block(enc), data);
}

TEST(Dmc, TruncatedHeaderThrows) {
  EXPECT_THROW(dmc_decompress_block({1, 2}), std::invalid_argument);
}

TEST(Lzw, CompressesRepetitiveData) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) {
    const char* s = "abcabcabd";
    data.insert(data.end(), s, s + 9);
  }
  const auto enc = lzw_compress(data);
  EXPECT_LT(enc.size(), data.size() / 3);
  EXPECT_EQ(lzw_decompress(enc), data);
}

TEST(Lzw, DictionaryResetHandledOnHugeInput) {
  // > 64K distinct phrases forces a CLEAR + reset inside the stream.
  const auto data = random_bytes(300000, 16);
  EXPECT_EQ(lzw_decompress(lzw_compress(data)), data);
}

TEST(Lzw, MissingStopCodeThrows) {
  EXPECT_THROW(lzw_decompress({}), std::invalid_argument);
}

// ---------------------------------------------------------------- JPEG ----

Image test_image(std::size_t w = 64, std::size_t h = 48,
                 std::uint64_t seed = 20) {
  return Image{w, h, synthetic_image(w, h, seed)};
}

TEST(Jpeg, RoundTripPreservesDimensions) {
  const auto img = test_image();
  const auto dec = jpeg_decode(jpeg_encode(img));
  EXPECT_EQ(dec.width, img.width);
  EXPECT_EQ(dec.height, img.height);
  EXPECT_TRUE(dec.valid());
}

TEST(Jpeg, HighQualityGivesHighPsnr) {
  const auto img = test_image();
  const auto dec = jpeg_decode(jpeg_encode(img, JpegOptions{95}));
  EXPECT_GT(psnr(img, dec), 30.0);
}

TEST(Jpeg, QualityTradesSizeForPsnr) {
  const auto img = test_image(96, 96, 21);
  const auto hi = jpeg_encode(img, JpegOptions{90});
  const auto lo = jpeg_encode(img, JpegOptions{20});
  EXPECT_LT(lo.size(), hi.size());
  const double psnr_hi = psnr(img, jpeg_decode(hi));
  const double psnr_lo = psnr(img, jpeg_decode(lo));
  EXPECT_GT(psnr_hi, psnr_lo);
}

TEST(Jpeg, CompressesRealImageContent) {
  const auto img = test_image(128, 128, 22);
  const auto enc = jpeg_encode(img, JpegOptions{75});
  EXPECT_LT(enc.size(), img.rgb.size() / 2);
}

TEST(Jpeg, NonMultipleOf8DimensionsWork) {
  const auto img = test_image(33, 17, 23);
  const auto dec = jpeg_decode(jpeg_encode(img));
  EXPECT_EQ(dec.width, 33u);
  EXPECT_EQ(dec.height, 17u);
  EXPECT_GT(psnr(img, dec), 20.0);
}

TEST(Jpeg, TinyImage) {
  const auto img = test_image(8, 8, 24);
  EXPECT_GT(psnr(img, jpeg_decode(jpeg_encode(img))), 20.0);
}

TEST(Jpeg, RejectsInvalidInputs) {
  EXPECT_THROW(jpeg_encode(Image{}), std::invalid_argument);
  Image bad{10, 10, Bytes(5)};
  EXPECT_THROW(jpeg_encode(bad), std::invalid_argument);
  EXPECT_THROW(jpeg_decode({1, 2, 3}), std::invalid_argument);
}

TEST(Jpeg, PsnrIdentityIsMax) {
  const auto img = test_image(16, 16, 25);
  EXPECT_DOUBLE_EQ(psnr(img, img), 99.0);
  EXPECT_THROW(psnr(img, test_image(8, 8, 25)), std::invalid_argument);
}

TEST(Jpeg, RejectsAllocationBombHeaders) {
  // A header claiming absurd dimensions must throw, not allocate.
  Bytes bomb = {0x7F, 0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 75};
  bomb.resize(64, 0);
  EXPECT_THROW(jpeg_decode(bomb), std::invalid_argument);
}

// ----------------------------------------------------- garbage fuzzing ----

// Every decoder must survive arbitrary input: either throw
// std::invalid_argument or produce some output — never crash, hang, or
// allocate absurd amounts.
class GarbageFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Bytes garbage() const {
    const auto seed = GetParam();
    auto data = random_bytes(64 + seed % 3000, seed);
    // Keep header-declared sizes small-ish so a "successful" parse
    // stays cheap; the dedicated bomb tests cover the huge-size paths.
    if (data.size() >= 4) {
      data[0] = 0;
      data[1] = 0;
    }
    return data;
  }
};

TEST_P(GarbageFuzz, Bzip2ishNeverCrashes) {
  try {
    (void)bzip2ish_decompress_block(garbage());
  } catch (const std::invalid_argument&) {
  }
}

TEST_P(GarbageFuzz, DmcNeverCrashes) {
  try {
    (void)dmc_decompress_block(garbage());
  } catch (const std::invalid_argument&) {
  }
}

TEST_P(GarbageFuzz, LzwNeverCrashes) {
  try {
    (void)lzw_decompress(garbage());
  } catch (const std::invalid_argument&) {
  }
}

TEST_P(GarbageFuzz, JpegNeverCrashes) {
  auto data = garbage();
  // Plant plausible small dimensions so decoding proceeds past the
  // header guard into the entropy sections.
  if (data.size() >= 9) {
    data[0] = data[4] = 0;
    data[1] = data[5] = 0;
    data[2] = data[6] = 0;
    data[3] = data[7] = 16;
  }
  try {
    (void)jpeg_decode(data);
  } catch (const std::invalid_argument&) {
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarbageFuzz,
                         ::testing::Range<std::uint64_t>(1000, 1012));

}  // namespace
}  // namespace eewa::wl
